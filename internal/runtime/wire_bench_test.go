package runtime

import (
	"bytes"
	"encoding/gob"
	"testing"

	"allscale/internal/wire"
)

// BenchmarkWireCodec compares the hand-written binary envelope codec
// against per-message gob for a typical RPC request (small header
// plus a 1 KiB pre-encoded body) and for a bulk numeric payload.
func BenchmarkWireCodec(b *testing.B) {
	req := &rpcRequest{Method: "dim.fetch", Body: make([]byte, 1024), Span: 123456}
	b.Run("envelope/binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := wire.Encode(req)
			if err != nil {
				b.Fatal(err)
			}
			var out rpcRequest
			if err := wire.Decode(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("envelope/gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(req); err != nil {
				b.Fatal(err)
			}
			var out rpcRequest
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})

	grid := make([]float64, 64*64)
	for i := range grid {
		grid[i] = float64(i)
	}
	b.Run("payload/binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := wire.Encode(grid)
			if err != nil {
				b.Fatal(err)
			}
			var out []float64
			if err := wire.Decode(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("payload/gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(grid); err != nil {
				b.Fatal(err)
			}
			var out []float64
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
