package dim

import (
	"sync"
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/region"
)

// recordingFragment notes the region of every Insert into the fragment
// it wraps.
type recordingFragment struct {
	dataitem.Fragment
	mu       sync.Mutex
	inserted []dataitem.Region
}

func (f *recordingFragment) Insert(data []byte) (dataitem.Region, error) {
	r, err := f.Fragment.Insert(data)
	if err == nil {
		f.mu.Lock()
		f.inserted = append(f.inserted, r)
		f.mu.Unlock()
	}
	return r, err
}

// record puts a recordingFragment around rank's fragment of id and
// returns it with the grid fragment inside.
func (ts *testSystem) record(rank int, id ItemID) (*recordingFragment, *dataitem.GridFragment[int]) {
	m := ts.managers[rank]
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.items[id]
	rec := &recordingFragment{Fragment: st.frag}
	st.frag = rec
	return rec, rec.Fragment.(*dataitem.GridFragment[int])
}

// TestConcurrentStagingInstallsOnce: two tasks of one rank stage
// overlapping remote rows at once. Both find them missing and both
// fetch them; whichever reply comes second must leave alone what the
// first installed — its task is granted and reading by then (exclusive
// writes: nobody writes an element somebody holds locked).
func TestConcurrentStagingInstallsOnce(t *testing.T) {
	rowR, rowS := gr(2, 0, 3, 8), gr(3, 0, 4, 8)
	run := func(t *testing.T, locked dataitem.GridRegion, want []dataitem.GridRegion,
		stage func(ts *testSystem, read func(tok uint64, want dataitem.Region) <-chan struct{})) {
		typ := dataitem.NewGridType[int]("field", p(8, 8))
		ts := newTestSystem(t, 2, typ)
		id, _ := ts.managers[0].CreateItem(typ)
		full := dataitem.Region(gr(0, 0, 8, 8))
		ts.touch(t, 0, id, full, Write)
		// A copy at rank 1 to watch, and the owner in its locate cache, so
		// that the only calls its readers wait for are fetches.
		ts.touch(t, 1, id, gr(7, 7, 8, 8), Read)
		rec, frag := ts.record(1, id)
		if _, err := ts.managers[1].OwnersHint(id, full); err != nil {
			t.Fatal(err)
		}
		ts.settle(t)

		if err := ts.managers[0].Acquire(1, []Requirement{{Item: id, Region: locked, Mode: Write}}); err != nil {
			t.Fatal(err)
		}
		var done sync.WaitGroup
		allGranted := make(chan struct{})
		read := func(tok uint64, want dataitem.Region) <-chan struct{} {
			granted := make(chan struct{})
			done.Add(1)
			go func() {
				defer done.Done()
				err := ts.managers[1].Acquire(tok, []Requirement{{Item: id, Region: want, Mode: Read}})
				close(granted)
				if err != nil {
					t.Errorf("reader %d: %v", tok, err)
					return
				}
				defer ts.managers[1].Release(tok)
				// Read what was granted until the other reader is in too.
				for {
					want.(dataitem.GridRegion).B.ForEachPoint(func(q region.Point) {
						if got := frag.At(q); got != 0 {
							t.Errorf("reader %d: %v = %d", tok, q, got)
						}
					})
					select {
					case <-allGranted:
						return
					default:
					}
				}
			}()
			return granted
		}
		stage(ts, read)
		close(allGranted)
		done.Wait()

		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.inserted) != len(want) {
			t.Fatalf("installs %v, want %v", rec.inserted, want)
		}
		for _, w := range want {
			found := false
			for _, got := range rec.inserted {
				found = found || got.Equal(w)
			}
			if !found {
				t.Fatalf("installs %v, want %v", rec.inserted, want)
			}
		}
	}

	// Both fetches wait behind the owner's lock and are answered
	// together: the second reply is dropped whole.
	t.Run("same row", func(t *testing.T) {
		run(t, rowR, []dataitem.GridRegion{rowR}, func(ts *testSystem, read func(uint64, dataitem.Region) <-chan struct{}) {
			first := read(10, rowR)
			ts.awaitPending(t, 1, 1)
			second := read(11, rowR)
			ts.awaitPending(t, 1, 2)
			ts.managers[0].Release(1)
			<-first
			<-second
		})
	})
	// The wider fetch waits, the narrower one is served and its reader
	// granted; the wider reply is clipped to what is new.
	t.Run("overlap", func(t *testing.T) {
		run(t, rowS, []dataitem.GridRegion{rowR, rowS}, func(ts *testSystem, read func(uint64, dataitem.Region) <-chan struct{}) {
			wide := read(10, rowR.Union(rowS))
			ts.awaitPending(t, 1, 1)
			<-read(11, rowR)
			ts.managers[0].Release(1)
			<-wide
		})
	})
}
