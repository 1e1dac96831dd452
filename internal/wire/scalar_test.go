package wire

import (
	"math"
	"strings"
	"testing"
)

// TestScalarBuiltinsRoundTrip covers the builtin forms of the scalar
// task results and the empty RPC body, in value and pointer form.
func TestScalarBuiltinsRoundTrip(t *testing.T) {
	for _, v := range []int{0, 7, -7, math.MaxInt, math.MinInt} {
		for _, in := range []any{v, &v} {
			var out int
			roundTrip(t, in, &out)
			if out != v {
				t.Errorf("int %d came back as %d", v, out)
			}
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.NaN()} {
		for _, in := range []any{v, &v} {
			var out float64
			roundTrip(t, in, &out)
			if math.Float64bits(out) != math.Float64bits(v) {
				t.Errorf("float64 %v came back as %v", v, out)
			}
		}
	}
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		for _, in := range []any{v, &v} {
			var out int64
			roundTrip(t, in, &out)
			if out != v {
				t.Errorf("int64 %d came back as %d", v, out)
			}
		}
	}
	for _, v := range []uint64{0, 127, 128, math.MaxUint64} {
		for _, in := range []any{v, &v} {
			var out uint64
			roundTrip(t, in, &out)
			if out != v {
				t.Errorf("uint64 %d came back as %d", v, out)
			}
		}
	}
	for _, v := range []string{"", "42", strings.Repeat("é", 300)} {
		for _, in := range []any{v, &v} {
			var out string
			roundTrip(t, in, &out)
			if out != v {
				t.Errorf("string %q came back as %q", v, out)
			}
		}
	}
	for _, in := range []any{struct{}{}, &struct{}{}} {
		data := roundTrip(t, in, &struct{}{})
		if len(data) != 1 {
			t.Errorf("struct{} encodes to %d bytes, want the tag alone", len(data))
		}
	}
}

func roundTrip(t *testing.T, in, out any) []byte {
	t.Helper()
	data, err := Encode(in)
	if err != nil {
		t.Fatalf("encode %T: %v", in, err)
	}
	if data[0] != FormatBinary {
		t.Fatalf("%T: format tag %#x, want binary", in, data[0])
	}
	if err := Decode(data, out); err != nil {
		t.Fatalf("decode %T: %v", in, err)
	}
	return data
}

// TestTrailingBytesRejected: a binary payload is exactly one value.
func TestTrailingBytesRejected(t *testing.T) {
	for _, tc := range []struct {
		in  any
		out any
	}{
		{-5, new(int)},
		{2.5, new(float64)},
		{int64(-5), new(int64)},
		{uint64(5), new(uint64)},
		{"s", new(string)},
		{struct{}{}, new(struct{})},
		{[]int64{1, 2}, new([]int64)},
		{&testMsg{ID: 3, Name: "m"}, new(testMsg)},
	} {
		data, err := Encode(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if err := Decode(append(data, 0), tc.out); err == nil {
			t.Errorf("%T: trailing byte accepted", tc.in)
		}
	}
}

// FuzzScalarBuiltins feeds arbitrary payloads to the scalar decoders:
// an error or a value, never a panic; and whatever decodes re-encodes
// to a payload that decodes to the same value.
func FuzzScalarBuiltins(f *testing.F) {
	for _, v := range []any{int64(0), int64(math.MinInt64), uint64(math.MaxUint64), -7, math.Inf(1), "", "result", struct{}{}} {
		data, err := Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])                    // truncated
		f.Add(append(data[:len(data):len(data)], 7)) // trailing garbage
	}
	f.Add([]byte{FormatBinary, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // 10-byte varint overflow
	f.Add([]byte{FormatBinary, 0xFF, 0xFF, 0xFF, 0x7F, 'x'})                                // string longer than the payload
	f.Fuzz(func(t *testing.T, data []byte) {
		var i int64
		if Decode(data, &i) == nil {
			var again int64
			roundTrip(t, i, &again)
			if again != i {
				t.Fatalf("int64 %d re-decoded as %d", i, again)
			}
		}
		var n int
		if Decode(data, &n) == nil {
			var again int
			roundTrip(t, n, &again)
			if again != n {
				t.Fatalf("int %d re-decoded as %d", n, again)
			}
		}
		var fl float64
		if Decode(data, &fl) == nil {
			var again float64
			roundTrip(t, fl, &again)
			if math.Float64bits(again) != math.Float64bits(fl) {
				t.Fatalf("float64 %v re-decoded as %v", fl, again)
			}
		}
		var u uint64
		if Decode(data, &u) == nil {
			var again uint64
			roundTrip(t, u, &again)
			if again != u {
				t.Fatalf("uint64 %d re-decoded as %d", u, again)
			}
		}
		var s string
		if Decode(data, &s) == nil {
			var again string
			roundTrip(t, s, &again)
			if again != s {
				t.Fatalf("string %q re-decoded as %q", s, again)
			}
		}
		if Decode(data, &struct{}{}) == nil && data[0] == FormatBinary && len(data) != 1 {
			t.Fatalf("struct{} decoded from %d bytes", len(data))
		}
	})
}
