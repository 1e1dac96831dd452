package runtime

import (
	"testing"

	"allscale/internal/wire"
)

func TestDuplicateMethodRegistrationPanics(t *testing.T) {
	s := NewSystem(1)
	defer s.Close()
	l := s.Locality(0)
	l.Handle("dup", func(int, []byte) ([]byte, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle must panic")
		}
	}()
	l.Handle("dup", func(int, []byte) ([]byte, error) { return nil, nil })
}

func TestDuplicateOneWayRegistrationPanics(t *testing.T) {
	s := NewSystem(1)
	defer s.Close()
	l := s.Locality(0)
	l.HandleOneWay("dup", func(int, []byte) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate HandleOneWay must panic")
		}
	}()
	l.HandleOneWay("dup", func(int, []byte) {})
}

func TestCallDecodeMismatchSurfacesError(t *testing.T) {
	s := NewSystem(2)
	s.Locality(1).Handle("str", func(int, []byte) ([]byte, error) {
		return wire.Encode("a string")
	})
	s.Locality(0).Handle("noop", func(int, []byte) ([]byte, error) { return nil, nil })
	s.Start()
	defer s.Close()
	var out int
	if err := s.Locality(0).Call(1, "str", nil, &out); err == nil {
		t.Fatal("decoding a string into an int must fail")
	}
}

func TestSendToUnknownOneWayLocalFails(t *testing.T) {
	s := NewSystem(1)
	s.Locality(0).Handle("x", func(int, []byte) ([]byte, error) { return nil, nil })
	s.Start()
	defer s.Close()
	if err := s.Locality(0).Send(0, "missing", 1); err == nil {
		t.Fatal("local send to unknown one-way must fail")
	}
}

func TestSystemAccessors(t *testing.T) {
	s := NewSystem(3)
	defer s.Close()
	if s.Size() != 3 {
		t.Fatalf("size = %d", s.Size())
	}
	if got := len(s.Localities()); got != 3 {
		t.Fatalf("localities = %d", got)
	}
	for i, l := range s.Localities() {
		if l.Rank() != i || l.Size() != 3 {
			t.Fatalf("locality %d reports rank %d size %d", i, l.Rank(), l.Size())
		}
	}
}

func TestPromiseIDString(t *testing.T) {
	id := PromiseID{Owner: 2, Seq: 9}
	if got := id.String(); got != "p2.9" {
		t.Fatalf("String = %q", got)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	s := NewSystem(1)
	s.Locality(0).Handle("x", func(int, []byte) ([]byte, error) { return nil, nil })
	s.Start()
	l := s.Locality(0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
}
