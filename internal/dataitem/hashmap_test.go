package dataitem

import (
	"sync"
	"testing"

	"allscale/internal/region"
)

func TestMapFragmentBasics(t *testing.T) {
	typ := NewMapType[string, int]("kv", 8)
	if typ.FullRegion().Size() != 8 {
		t.Fatalf("full region = %d buckets", typ.FullRegion().Size())
	}
	f := typ.NewFragment().(*MapFragment[string, int])
	if err := f.Resize(typ.FullRegion()); err != nil {
		t.Fatal(err)
	}
	f.Put("alpha", 1)
	f.Put("beta", 2)
	if v, ok := f.Get("alpha"); !ok || v != 1 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if _, ok := f.Get("gamma"); ok {
		t.Fatal("absent key reported present")
	}
	f.Delete("alpha")
	if _, ok := f.Get("alpha"); ok {
		t.Fatal("deleted key still present")
	}
	if f.Len() != 1 {
		t.Fatalf("len = %d", f.Len())
	}
}

func TestMapBucketAssignmentDeterministic(t *testing.T) {
	typ := NewMapType[string, int]("kv2", 16)
	seen := map[int64]int{}
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		b1 := typ.BucketOf(k)
		b2 := typ.BucketOf(k)
		if b1 != b2 {
			t.Fatal("bucket assignment not deterministic")
		}
		if b1 < 0 || b1 >= 16 {
			t.Fatalf("bucket %d out of range", b1)
		}
		seen[b1]++
	}
	if len(seen) < 3 {
		t.Fatalf("keys hash to only %d buckets", len(seen))
	}
	if typ.BucketRegion("a").Size() != 1 {
		t.Fatal("bucket region must cover one bucket")
	}
}

func TestMapFragmentAccessOutsideBucketsPanics(t *testing.T) {
	typ := NewMapType[string, int]("kv3", 8)
	f := typ.NewFragment().(*MapFragment[string, int])
	// Cover only the bucket of "inside".
	if err := f.Resize(typ.BucketRegion("inside")); err != nil {
		t.Fatal(err)
	}
	f.Put("inside", 1)
	// Find a key hashing to a different bucket.
	outside := ""
	for _, k := range []string{"x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9"} {
		if typ.BucketOf(k) != typ.BucketOf("inside") {
			outside = k
			break
		}
	}
	if outside == "" {
		t.Skip("all probe keys collided")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("access outside covered buckets must panic")
		}
	}()
	f.Put(outside, 2)
}

func TestMapExtractInsertRoundTrip(t *testing.T) {
	typ := NewMapType[string, float64]("kv4", 4)
	src := typ.NewFragment().(*MapFragment[string, float64])
	src.Resize(typ.FullRegion())
	keys := []string{"one", "two", "three", "four", "five", "six"}
	for i, k := range keys {
		src.Put(k, float64(i)*1.5)
	}
	// Transfer buckets 0..2.
	sub := buckets(0, 2)
	data, err := src.Extract(sub)
	if err != nil {
		t.Fatal(err)
	}
	dst := typ.NewFragment().(*MapFragment[string, float64])
	dst.Resize(sub)
	if _, err := dst.Insert(data); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, k := range keys {
		if typ.BucketOf(k) < 2 {
			moved++
			if v, ok := dst.Get(k); !ok || v != float64(i)*1.5 {
				t.Fatalf("key %q = %v,%v after transfer", k, v, ok)
			}
		}
	}
	if moved == 0 {
		t.Skip("no probe key landed in buckets 0..2")
	}
	if dst.Len() != moved {
		t.Fatalf("dst holds %d pairs, want %d", dst.Len(), moved)
	}
}

// TestMapInsertReplacesCarriedBuckets: inserting over buckets already
// held — the DIM refreshing a replica in place — leaves exactly the
// sender's pairs in every bucket that travelled with one: a pair the
// sender deleted meanwhile does not survive beside them.
func TestMapInsertReplacesCarriedBuckets(t *testing.T) {
	typ := NewMapType[int, string]("kv6", 2)
	src := typ.NewFragment().(*MapFragment[int, string])
	dst := typ.NewFragment().(*MapFragment[int, string])
	for _, f := range []*MapFragment[int, string]{src, dst} {
		f.Resize(typ.FullRegion())
		for k := 0; k < 16; k++ {
			f.Put(k, "old")
		}
	}
	gone := -1
	for k := 0; k < 16; k++ {
		if typ.BucketOf(k) != 0 {
			continue
		}
		if gone < 0 {
			gone = k
			src.Delete(k)
		} else {
			src.Put(k, "new")
		}
	}
	data, err := src.Extract(buckets(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	covered, err := dst.Insert(data)
	if err != nil {
		t.Fatal(err)
	}
	if !covered.Equal(buckets(0, 1)) {
		t.Fatalf("insert covered %v, want bucket 0", covered)
	}
	if _, ok := dst.Get(gone); ok {
		t.Errorf("key %d, deleted at the sender, survived the refresh", gone)
	}
	for k := 0; k < 16; k++ {
		want := "old"
		if typ.BucketOf(k) == 0 {
			want = "new"
		}
		if v, ok := dst.Get(k); k != gone && (!ok || v != want) {
			t.Errorf("key %d = %q,%v after the refresh, want %q", k, v, ok, want)
		}
	}
}

func TestMapFragmentResizeDropsForeignBuckets(t *testing.T) {
	typ := NewMapType[int, string]("kv5", 4)
	f := typ.NewFragment().(*MapFragment[int, string])
	f.Resize(typ.FullRegion())
	for i := 0; i < 20; i++ {
		f.Put(i, "v")
	}
	keep := buckets(0, 2)
	if err := f.Resize(keep); err != nil {
		t.Fatal(err)
	}
	f.ForEach(func(k int, _ string) {
		if typ.BucketOf(k) >= 2 {
			t.Fatalf("key %d in dropped bucket survived", k)
		}
	})
	total := 0
	f.ForEach(func(int, string) { total++ })
	if total != f.Len() || total == 20 || total == 0 {
		t.Fatalf("kept %d of 20", total)
	}
}

func TestMapExtractRequiresCoverage(t *testing.T) {
	typ := NewMapType[string, int]("kv6", 4)
	f := typ.NewFragment().(*MapFragment[string, int])
	f.Resize(buckets(0, 2))
	if _, err := f.Extract(buckets(0, 4)); err == nil {
		t.Fatal("extract beyond coverage must fail")
	}
}

// buckets returns the region of buckets [lo, hi).
func buckets(lo, hi int) GridRegion {
	return GridRegionFromTo(region.Point{lo}, region.Point{hi})
}

// TestMapWritersOfDistinctBucketsSurviveResizes: two tasks of one rank
// write the pairs of buckets 0 and 1 while the manager grows the
// fragment to every bucket and shrinks it back. With one Go map under
// Put this died of "concurrent map iteration and map write".
func TestMapWritersOfDistinctBucketsSurviveResizes(t *testing.T) {
	typ := NewMapType[int, int]("kvW", 4)
	f := typ.NewFragment().(*MapFragment[int, int])
	base := buckets(0, 2)
	f.Resize(base)
	var keys [2][]int
	for k := 0; len(keys[0]) < 16 || len(keys[1]) < 16; k++ {
		if b := typ.BucketOf(k); b < 2 && len(keys[b]) < 16 {
			keys[b] = append(keys[b], k)
		}
	}
	stop := make(chan struct{})
	var resizing sync.WaitGroup
	resizing.Add(1)
	go func() {
		defer resizing.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.Resize(typ.FullRegion())
			f.Resize(base)
		}
	}()
	var writing sync.WaitGroup
	for _, ks := range keys {
		writing.Add(1)
		go func(ks []int) {
			defer writing.Done()
			for round := 1; round <= 500; round++ {
				for _, k := range ks {
					f.Put(k, round)
				}
				for _, k := range ks {
					if got, ok := f.Get(k); !ok || got != round {
						t.Errorf("key %d = %d,%v in round %d", k, got, ok, round)
						return
					}
				}
			}
		}(ks)
	}
	writing.Wait()
	close(stop)
	resizing.Wait()
}
