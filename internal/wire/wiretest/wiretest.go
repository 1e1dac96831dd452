// Package wiretest holds the checks every hand-written wire form has
// to pass, so that each package with a codec states its seeds and
// nothing else.
package wiretest

import (
	"bytes"
	"testing"

	"allscale/internal/wire"
)

// Codec is a pointer type with a hand-written binary form.
type Codec[T any] interface {
	*T
	wire.Marshaler
	wire.Unmarshaler
}

// RoundTrip encodes in, decodes it into out and returns the payload.
// It fails the test when the payload does not start with the format
// tag, or when the decoder accepts the payload cut short by a byte or
// followed by one.
func RoundTrip(t testing.TB, in wire.Marshaler, out wire.Unmarshaler) []byte {
	t.Helper()
	data, err := wire.Encode(in)
	if err != nil {
		t.Fatalf("encode %T: %v", in, err)
	}
	if data[0] != wire.FormatBinary {
		t.Fatalf("%T: format tag %#x, want binary", in, data[0])
	}
	if err := wire.Decode(data[:len(data)-1], out); err == nil {
		t.Errorf("%T: truncated payload accepted", in)
	}
	if err := wire.Decode(append(data[:len(data):len(data)], 0), out); err == nil {
		t.Errorf("%T: trailing byte accepted", in)
	}
	if err := wire.Decode(data, out); err != nil {
		t.Fatalf("decode %T: %v", in, err)
	}
	return data
}

// FuzzUnmarshal feeds arbitrary bodies (the bytes after the format
// tag) to T's UnmarshalWire, seeded with the encoded seeds, their first
// halves and a copy with a trailing byte. Malformed input must be an error, never a panic, and
// an accepted value must re-encode to bytes that decode to a value
// encoding the same.
func FuzzUnmarshal[T any, P Codec[T]](f *testing.F, seeds ...P) {
	for _, s := range seeds {
		body, err := s.AppendWire(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(append(body[:len(body):len(body)], 0xAB))
	}
	decode := func(body []byte, v P) error {
		return wire.Decode(append([]byte{wire.FormatBinary}, body...), v)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var v, w T
		if decode(body, P(&v)) != nil {
			return
		}
		first, err := P(&v).AppendWire(nil)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		if err := decode(first, P(&w)); err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		second, err := P(&w).AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not stable: %x then %x", first, second)
		}
	})
}
