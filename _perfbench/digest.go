package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sort"

	"repro/internal/simnet"
)

// resultsDigest hashes every simulated statistic of a run: all of
// Results except its Config, which holds the benchmark's metrics
// registry and hash wrapper. The encoding is canonical (map keys
// sorted, floats by bit pattern), so two runs agree iff their Results
// are identical, field by field.
func resultsDigest(r *simnet.Results) string {
	var buf bytes.Buffer
	v := reflect.ValueOf(r).Elem()
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		if t.Field(i).Name == "Config" {
			continue
		}
		buf.WriteString(t.Field(i).Name)
		encode(&buf, v.Field(i))
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8])
}

// encode appends a canonical byte form of v. It reads unexported
// fields too, so accumulators held behind pointers are covered.
func encode(buf *bytes.Buffer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		buf.Write(binary.AppendVarint(nil, v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		buf.Write(binary.AppendUvarint(nil, v.Uint()))
	case reflect.Float32, reflect.Float64:
		buf.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v.Float())))
	case reflect.String:
		buf.Write(binary.AppendUvarint(nil, uint64(v.Len())))
		buf.WriteString(v.String())
	case reflect.Slice, reflect.Array:
		buf.Write(binary.AppendUvarint(nil, uint64(v.Len())))
		for i := 0; i < v.Len(); i++ {
			encode(buf, v.Index(i))
		}
	case reflect.Map:
		type entry struct{ key, val []byte }
		entries := make([]entry, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			var k, e bytes.Buffer
			encode(&k, iter.Key())
			encode(&e, iter.Value())
			entries = append(entries, entry{k.Bytes(), e.Bytes()})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
		buf.Write(binary.AppendUvarint(nil, uint64(len(entries))))
		for _, e := range entries {
			buf.Write(e.key)
			buf.Write(e.val)
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			buf.WriteByte(0)
			return
		}
		buf.WriteByte(1)
		encode(buf, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			encode(buf, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("perfbench: cannot digest a %s", v.Type()))
	}
}

// golden is the recorded output of one episode of a workload at the
// default seed and node count: the Results digest and the checksum of
// the episode's lookup answers. Values were recorded on amd64; a
// speed-only change must leave them unchanged.
type golden struct {
	digest   string
	checksum uint64
}

var goldens = map[string]golden{
	"shadow-2k": {"168e872cc1a6b316", 0xf36453bedf2476c3},
	"fine-2k":   {"4038a4b10e7f13f3", 0x2ace770503a4093a},
	"lookup-2k": {"d77c926b0ece78ce", 0x6313c0ef0c309e5e},
}
