package core

import (
	"bytes"
	"encoding/gob"
	"slices"
	"testing"

	"allscale/internal/region"
	"allscale/internal/wire"
	"allscale/internal/wire/wiretest"
)

func pforArgsCases() []pforArgs {
	return []pforArgs{
		{R: Range{Lo: region.Point{0}, Hi: region.Point{4096}}, Extra: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{R: Range{Lo: region.Point{-1, -64}, Hi: region.Point{63, 1 << 40}}, Extra: []byte{0}},
		{R: Range{Lo: region.Point{-3, 0, 7}, Hi: region.Point{-1, 0, 9}}}, // empty Extra, empty volume
		{R: Range{Lo: region.Point{}, Hi: region.Point{}}, Extra: make([]byte, 300)},
	}
}

// TestPForArgsWireRoundTrip covers 0–3-d ranges, negative and large
// coordinates and an empty Extra, and checks the form is binary.
func TestPForArgsWireRoundTrip(t *testing.T) {
	for _, in := range pforArgsCases() {
		var out pforArgs
		wiretest.RoundTrip(t, &in, &out)
		if !slices.Equal(out.R.Lo, in.R.Lo) || !slices.Equal(out.R.Hi, in.R.Hi) || !bytes.Equal(out.Extra, in.Extra) {
			t.Errorf("round trip of %v/%x gave %v/%x", in.R, in.Extra, out.R, out.Extra)
		}
		// The halves of a decoded range must not share storage with it:
		// Split clones, and the decoder's single allocation is capped.
		if n := len(out.R.Lo); n > 0 {
			lo := append(out.R.Lo, 99)
			if len(lo) != n+1 || !slices.Equal(out.R.Hi, in.R.Hi) {
				t.Errorf("appending to Lo of %v overwrote Hi", in.R)
			}
		}
	}
}

// TestSplitPForArgsMatchesRangeSplit: the halves a split encodes
// straight from its own arguments decode to what Range.Split makes of
// the decoded range, each with the whole extra payload — also where the
// halves outgrow pforKids' own buffer. A 0-d range has no volume and is
// never split.
func TestSplitPForArgsMatchesRangeSplit(t *testing.T) {
	cases := append(pforArgsCases(),
		pforArgs{R: Range{Lo: region.Point{0, 0}, Hi: region.Point{64, 63}}, Extra: make([]byte, 2*pforKidsInline)})
	for _, in := range cases {
		if len(in.R.Lo) == 0 {
			continue
		}
		body, err := wire.Encode(&in)
		if err != nil {
			t.Fatal(err)
		}
		kids, err := splitPForArgs(body)
		if err != nil {
			t.Fatalf("split of %v: %v", in.R, err)
		}
		l, r := in.R.Split()
		for i, want := range []Range{l, r} {
			half := kids.args[i]
			if cap(half) != len(half) {
				t.Errorf("half %d of %v can grow into its sibling", i, in.R)
			}
			var got pforArgs
			if err := decodePForArgs(half, &got); err != nil {
				t.Fatalf("half %d of %v: %v", i, in.R, err)
			}
			if !slices.Equal(got.R.Lo, want.Lo) || !slices.Equal(got.R.Hi, want.Hi) || !bytes.Equal(got.Extra, in.Extra) {
				t.Errorf("half %d of %v/%d bytes: %v/%d bytes, want %v", i, in.R, len(in.Extra), got.R, len(got.Extra), want)
			}
		}
	}
	if _, err := splitPForArgs([]byte{wire.FormatBinary, 1, 0}); err == nil {
		t.Error("split truncated arguments")
	}
}

// TestPForArgsWireRejects: bounds that disagree in dimension, or
// exceed the dimension bound, have no wire form on either side.
func TestPForArgsWireRejects(t *testing.T) {
	if _, err := wire.Encode(&pforArgs{R: Range{Lo: region.Point{0}, Hi: region.Point{1, 2}}}); err == nil {
		t.Error("encoded a range whose bounds differ in dimension")
	}
	wide := make(region.Point, maxRangeDims+1)
	if _, err := wire.Encode(&pforArgs{R: Range{Lo: wide, Hi: wide}}); err == nil {
		t.Errorf("encoded a %d-d range", len(wide))
	}
	oversized := wire.AppendUvarint([]byte{wire.FormatBinary}, maxRangeDims+1)
	if err := wire.Decode(oversized, &pforArgs{}); err == nil {
		t.Error("decoded a dimension count above the bound")
	}
	huge := wire.AppendUvarint([]byte{wire.FormatBinary}, 1<<62)
	if err := wire.Decode(huge, &pforArgs{}); err == nil {
		t.Error("decoded an absurd dimension count")
	}
}

// FuzzPForArgsUnmarshal: truncated, oversized or trailing-garbage
// input is an error, never a panic (a range that decodes re-encodes,
// so its bounds agree in dimension and respect maxRangeDims).
func FuzzPForArgsUnmarshal(f *testing.F) {
	seeds := pforArgsCases()
	ptrs := make([]*pforArgs, len(seeds))
	for i := range seeds {
		ptrs[i] = &seeds[i]
	}
	ptrs = append(ptrs, &pforArgs{R: Range{Lo: make(region.Point, maxRangeDims), Hi: make(region.Point, maxRangeDims)}})
	wiretest.FuzzUnmarshal(f, ptrs...)
}

// BenchmarkWireCodec is the core row of the runtime package's
// benchmark of the same name: the argument struct of every pfor task,
// in the binary form and in the per-message gob stream it replaced
// (which the scheduler paid three to four times per task).
func BenchmarkWireCodec(b *testing.B) {
	args := &pforArgs{R: Range{Lo: region.Point{0, 0}, Hi: region.Point{64, 64}}, Extra: make([]byte, 8)}
	b.Run("pforArgs/binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := wire.Encode(args)
			if err != nil {
				b.Fatal(err)
			}
			var out pforArgs
			if err := wire.Decode(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pforArgs/gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(args); err != nil {
				b.Fatal(err)
			}
			var out pforArgs
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
