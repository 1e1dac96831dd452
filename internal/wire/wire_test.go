package wire

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

type testMsg struct {
	ID   uint64
	Name string
	Body []byte
	Neg  int64
	Flag bool
}

func (m *testMsg) AppendWire(buf []byte) ([]byte, error) {
	buf = AppendUvarint(buf, m.ID)
	buf = AppendString(buf, m.Name)
	buf = AppendBytes(buf, m.Body)
	buf = AppendVarint(buf, m.Neg)
	return AppendBool(buf, m.Flag), nil
}

func (m *testMsg) UnmarshalWire(d *Decoder) error {
	m.ID = d.Uvarint()
	m.Name = d.String()
	m.Body = d.Bytes()
	m.Neg = d.Varint()
	m.Flag = d.Bool()
	return nil
}

// plainMsg declares no wire form.
type plainMsg struct {
	A int
	B string
}

func TestEncodeDecodeBinary(t *testing.T) {
	in := &testMsg{ID: 1 << 40, Name: "rpc.req", Body: []byte("payload"), Neg: -77, Flag: true}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != FormatBinary {
		t.Fatalf("format tag = %#x, want binary", data[0])
	}
	var out testMsg
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Name != in.Name || !bytes.Equal(out.Body, in.Body) || out.Neg != in.Neg || out.Flag != in.Flag {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, *in)
	}
}

// TestNoFormIsAnError: a type that declares no form does not cross
// the wire, in either direction, and the error says which type.
func TestNoFormIsAnError(t *testing.T) {
	for _, in := range []any{plainMsg{A: 42, B: "x"}, &plainMsg{}, []plainMsg{{}}, map[string]int{}} {
		data, err := Encode(in)
		if err == nil || data != nil {
			t.Fatalf("Encode(%T) = %x, %v; want an error", in, data, err)
		}
		if want := fmt.Sprintf("%T", in); !strings.Contains(err.Error(), want) {
			t.Errorf("Encode(%T): error %q does not name the type", in, err)
		}
	}
	data, _ := Encode(&testMsg{ID: 1})
	err := Decode(data, &plainMsg{})
	if err == nil || !strings.Contains(err.Error(), "*wire.plainMsg") {
		t.Fatalf("Decode into a type without a form: %v", err)
	}
}

// TestDecodeRejectsOtherTags: 0x01 is the only format; 0x00 used to
// announce a reflective stream and must not be read as anything.
func TestDecodeRejectsOtherTags(t *testing.T) {
	body, _ := (&testMsg{ID: 9, Name: "n"}).AppendWire(nil)
	for _, tag := range []byte{0x00, 0x02, 0xFF} {
		var out testMsg
		if err := Decode(append([]byte{tag}, body...), &out); err == nil {
			t.Errorf("tag %#02x accepted", tag)
		}
		var i int64
		if err := Decode([]byte{tag, 2}, &i); err == nil {
			t.Errorf("tag %#02x accepted for a builtin", tag)
		}
	}
}

func TestBuiltinSliceFastPath(t *testing.T) {
	in := []int64{-3, 0, 9, 1 << 50}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != FormatBinary {
		t.Fatalf("format tag = %#x, want binary for []int64", data[0])
	}
	var out []int64
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], in[i])
		}
	}
}

func TestNumericRoundTrip(t *testing.T) {
	d := NewDecoder(AppendNumeric(nil, []float64{1.5, -2.25, math.Inf(1), 0}))
	got := DecodeNumeric[float64](d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, -2.25, math.Inf(1), 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	d = NewDecoder(AppendNumeric(nil, []uint16{7, 65535}))
	got16 := DecodeNumeric[uint16](d)
	if err := d.Err(); err != nil || got16[0] != 7 || got16[1] != 65535 {
		t.Fatalf("uint16 round trip: %v %v", got16, err)
	}
}

func TestNumericKindMismatch(t *testing.T) {
	d := NewDecoder(AppendNumeric(nil, []float64{1}))
	DecodeNumeric[int32](d)
	if d.Err() == nil {
		t.Fatal("kind mismatch not detected")
	}
	// A block of a narrower kind must be refused before it is read at
	// the requested width (eight 1-byte elements are not eight uint64s).
	d = NewDecoder(AppendNumeric(nil, make([]uint8, 8)))
	if got := DecodeNumeric[uint64](d); got != nil || d.Err() == nil {
		t.Fatalf("uint8 block decoded as %v", got)
	}
}

// TestCountIsBoundedByBytesLeft: a count is the peer's claim; it must
// fit the bytes that follow it before anything is sized from it.
func TestCountIsBoundedByBytesLeft(t *testing.T) {
	body := AppendUvarint(nil, 3)
	body = append(body, 1, 2, 3, 4, 5, 6)
	if n := NewDecoder(body).Count(2); n != 3 {
		t.Fatalf("Count(2) of 3 in 6 bytes = %d", n)
	}
	for _, tc := range []struct {
		count   uint64
		elemMin int
	}{{3, 3}, {7, 1}, {1 << 62, 1}, {math.MaxUint64, 8}} {
		d := NewDecoder(append(AppendUvarint(nil, tc.count), 1, 2, 3, 4, 5, 6))
		if n := d.Count(tc.elemMin); n != 0 || d.Err() == nil {
			t.Errorf("Count(%d) of %d in 6 bytes = %d, %v", tc.elemMin, tc.count, n, d.Err())
		}
	}
}

func TestDecoderTruncation(t *testing.T) {
	full, _ := Encode(&testMsg{ID: 9, Name: "n", Body: make([]byte, 100)})
	for cut := 1; cut < len(full)-1; cut += 7 {
		var out testMsg
		if err := Decode(full[:cut], &out); err == nil && cut < len(full) {
			// Truncation inside a length prefix may still yield a prefix
			// of valid fields; it must never panic and the final field
			// must be unreadable.
			_ = out
		}
	}
	// A length prefix beyond the remaining data must error, not alloc.
	bad := []byte{FormatBinary, 0x05, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	var out testMsg
	if err := Decode(bad, &out); err == nil {
		t.Fatal("oversized length prefix not rejected")
	}
}

func TestEmptyPayload(t *testing.T) {
	if data, err := Encode(nil); err != nil || data != nil {
		t.Fatalf("Encode(nil) = %v, %v", data, err)
	}
	if err := Decode(nil, &testMsg{}); err == nil {
		t.Fatal("Decode of empty payload must fail")
	}
	if err := Decode(nil, nil); err != nil {
		t.Fatalf("Decode(nil, nil) = %v", err)
	}
}
