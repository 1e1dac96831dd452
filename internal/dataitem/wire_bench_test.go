package dataitem

import (
	"bytes"
	"encoding/gob"
	"testing"

	"allscale/internal/region"
)

// legacyGridWire is the reflect-encoded form grid extracts had before
// the binary codec.
type legacyGridWire[T any] struct {
	Boxes []region.Box
	Data  [][]T
}

// legacyGridExtract reproduces the pre-optimization extraction: a
// per-point closure walk through blockOf plus a per-message gob
// encoder. It is the baseline BenchmarkFragmentExtract compares the
// bulk binary path against.
func legacyGridExtract[T any](f *GridFragment[T], r Region) ([]byte, error) {
	gr := r.(GridRegion)
	var w legacyGridWire[T]
	for _, box := range gr.B.Boxes() {
		data := make([]T, 0, box.Size())
		region.NewBoxSet(box).ForEachPoint(func(p region.Point) {
			b := f.blockOf(p)
			data = append(data, b.data[boxIndex(b.alloc, p)])
		})
		w.Boxes = append(w.Boxes, box)
		w.Data = append(w.Data, data)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// legacyGridInsert is the matching pre-optimization insertion.
func legacyGridInsert[T any](f *GridFragment[T], data []byte) error {
	var w legacyGridWire[T]
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	for bi, box := range w.Boxes {
		vals := w.Data[bi]
		i := 0
		region.NewBoxSet(box).ForEachPoint(func(p region.Point) {
			f.Set(p, vals[i])
			i++
		})
	}
	return nil
}

func benchGrid(b *testing.B) (*GridFragment[float64], Region) {
	b.Helper()
	typ := NewGridType[float64]("bench.grid", region.Point{256, 256})
	f := typ.NewFragment().(*GridFragment[float64])
	full := typ.FullRegion()
	if err := f.Resize(full); err != nil {
		b.Fatal(err)
	}
	for x := 0; x < 256; x++ {
		row, _ := f.Row(region.Point{x, 0}, 256)
		for y := range row {
			row[y] = float64(x*256+y) * 0.5
		}
	}
	return f, full
}

// BenchmarkFragmentExtract compares the bulk binary extraction of a
// 256×256 float64 grid (512 KiB of data) with the legacy per-point
// gob path.
func BenchmarkFragmentExtract(b *testing.B) {
	f, full := benchGrid(b)
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.Extract(full); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy-gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := legacyGridExtract(f, full); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFragmentInsert is the matching insertion comparison.
func BenchmarkFragmentInsert(b *testing.B) {
	f, full := benchGrid(b)
	binPayload, err := f.Extract(full)
	if err != nil {
		b.Fatal(err)
	}
	gobPayload, err := legacyGridExtract(f, full)
	if err != nil {
		b.Fatal(err)
	}
	dst, _ := benchGrid(b)
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dst.Insert(binPayload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy-gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := legacyGridInsert(dst, gobPayload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
