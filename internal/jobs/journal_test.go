package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testStoreRecords builds a representative record stream: one tenant,
// six jobs walking every lifecycle (done, failed, cancelled-pending,
// cancelled-running, still-pending, still-running). Job 5 is admitted
// before job 4: replayed jobs are in ID order whatever the record order.
func testStoreRecords() [][]byte {
	q := Quota{MaxActive: 2, MaxPending: 8, MaxBytes: 1 << 20, Weight: 3}.normalized()
	recs := [][]byte{
		appendTenantRec(nil, tenantRec{Name: "acme", ID: 1, Quota: q}),
	}
	for _, id := range []uint64{1, 2, 3, 5, 4, 6} {
		recs = append(recs, appendAdmitRec(nil, jobRec{
			ID: id, Tenant: 1, Family: FamilyPFor,
			Params: []byte(`{"levels":3}`), Bytes: int64(100 * id),
			Submitted: int64(1000 * id), Client: "cli-a", Seq: id,
		}))
	}
	recs = append(recs,
		appendStartRec(nil, 1, 11000),
		appendStartRec(nil, 2, 12000),
		appendStartRec(nil, 4, 13000),
		appendTerminalRec(nil, recDone, 1, "0xbeef", 21000),
		appendTerminalRec(nil, recFail, 2, "boom", 22000),
		appendTerminalRec(nil, recCancel, 3, "", 23000),
		appendTerminalRec(nil, recCancel, 4, "job cancelled", 24000),
		appendStartRec(nil, 6, 15000),
	)
	return recs
}

// fixtureRecords is the record sequence of testdata/journal.0.wal, with
// fixed timestamps: two tenants, one of them reconfigured, and jobs that
// end done, failed, cancelled while pending and cancelled while running,
// one left running and one left pending, with and without submit tokens.
func fixtureRecords() [][]byte {
	const t0 = 1_700_000_000_123_456_789
	admit := func(id uint64, tid uint32, family, params string, bytes int64, client string, seq uint64) []byte {
		return appendAdmitRec(nil, jobRec{
			ID: id, Tenant: tid, Family: family, Params: []byte(params), Bytes: bytes,
			Submitted: t0 + int64(id)*1000, Client: client, Seq: seq,
		})
	}
	return [][]byte{
		appendTenantRec(nil, tenantRec{Name: "acme", ID: 1, Quota: Quota{MaxActive: 2, MaxPending: 8, MaxBytes: 1 << 20, Weight: 3}}),
		appendTenantRec(nil, tenantRec{Name: "beta", ID: 2, Quota: Quota{MaxActive: 4, MaxPending: 64, Weight: 1}}),
		admit(1, 1, FamilyPFor, `{"levels":3,"seed":7}`, 0, "cli-a", 1),
		admit(2, 2, FamilyStencil, `{"n":32,"steps":3}`, 16384, "", 0),
		appendStartRec(nil, 1, t0+10_001),
		admit(3, 1, FamilyTPC, `{"num_points":256,"height":5}`, 28672, "cli-a", 2),
		appendStartRec(nil, 2, t0+11_002),
		appendTerminalRec(nil, recDone, 1, "0xbeef", t0+20_003),
		appendTenantRec(nil, tenantRec{Name: "acme", ID: 1, Quota: Quota{MaxActive: 3, MaxPending: 64, Weight: 5}}),
		appendTerminalRec(nil, recFail, 2, "jobs: boom", t0+21_004),
		admit(4, 2, FamilyIPiC3D, `{"n":4,"steps":2}`, 4000, "cli-b", 1),
		appendTerminalRec(nil, recCancel, 3, "", t0+22_005),
		appendStartRec(nil, 4, t0+23_006),
		appendTerminalRec(nil, recCancel, 4, "sched: job cancelled", t0+24_007),
		admit(5, 1, FamilyPFor, `{"levels":1}`, 0, "", 0),
		appendStartRec(nil, 5, t0+25_008),
		admit(6, 2, FamilyPFor, `{"levels":2}`, 0, "cli-b", 2),
	}
}

// TestJournalFixture: testdata/journal.0.wal is a generation-0 journal
// of fixtureRecords and testdata/journal.1.wal its compacted generation,
// both written by the journal's encoders when the format was fixed and
// never rewritten since. The records still encode to the same bytes, the
// journal still replays to the registry they record, and compacting
// that registry still reproduces the compacted generation byte for byte.
func TestJournalFixture(t *testing.T) {
	gen0, err := os.ReadFile(filepath.Join("testdata", "journal.0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	gen1, err := os.ReadFile(filepath.Join("testdata", "journal.1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), journalMagic[:]...)
	for _, r := range fixtureRecords() {
		img = appendFrame(img, r)
	}
	if !bytes.Equal(img, gen0) {
		t.Fatalf("the fixture records encode differently:\n got %x\nwant %x", img, gen0)
	}
	const t0 = 1_700_000_000_123_456_789
	want := registryRecs{
		NextTenant: 2, NextJob: 6,
		Tenants: []tenantRec{
			{Name: "acme", ID: 1, Quota: Quota{MaxActive: 3, MaxPending: 64, Weight: 5}},
			{Name: "beta", ID: 2, Quota: Quota{MaxActive: 4, MaxPending: 64, Weight: 1}},
		},
		Jobs: []jobRec{
			{ID: 1, Tenant: 1, Family: FamilyPFor, Params: []byte(`{"levels":3,"seed":7}`), State: Done, Result: "0xbeef",
				Submitted: t0 + 1000, Started: t0 + 10_001, Finished: t0 + 20_003, Client: "cli-a", Seq: 1},
			{ID: 2, Tenant: 2, Family: FamilyStencil, Params: []byte(`{"n":32,"steps":3}`), Bytes: 16384, State: Failed, Error: "jobs: boom",
				Submitted: t0 + 2000, Started: t0 + 11_002, Finished: t0 + 21_004},
			{ID: 3, Tenant: 1, Family: FamilyTPC, Params: []byte(`{"num_points":256,"height":5}`), Bytes: 28672, State: Cancelled,
				Submitted: t0 + 3000, Finished: t0 + 22_005, Client: "cli-a", Seq: 2},
			{ID: 4, Tenant: 2, Family: FamilyIPiC3D, Params: []byte(`{"n":4,"steps":2}`), Bytes: 4000, State: Cancelled, Error: "sched: job cancelled",
				Submitted: t0 + 4000, Started: t0 + 23_006, Finished: t0 + 24_007, Client: "cli-b", Seq: 1},
			{ID: 5, Tenant: 1, Family: FamilyPFor, Params: []byte(`{"levels":1}`), State: Running,
				Submitted: t0 + 5000, Started: t0 + 25_008},
			{ID: 6, Tenant: 2, Family: FamilyPFor, Params: []byte(`{"levels":2}`), State: Pending,
				Submitted: t0 + 6000, Client: "cli-b", Seq: 2},
		},
	}
	for _, c := range []struct {
		name  string
		data  []byte
		based bool
	}{{"generation 0", gen0, false}, {"compacted generation", gen1, true}} {
		rec, _, valid, err := replayJournal(c.data, c.based)
		if err != nil || rec.TornTail || valid != len(c.data) {
			t.Fatalf("%s: replay: err %v, torn %v, %d of %d bytes", c.name, err, rec != nil && rec.TornTail, valid, len(c.data))
		}
		if got := recsOf(rec.storeState); !reflect.DeepEqual(got, want) {
			t.Errorf("%s replays to\n %+v\nwant\n %+v", c.name, got, want)
		}
		if img := compactedImage(rec.storeState); !bytes.Equal(img, gen1) {
			t.Errorf("%s: compacting its registry gives\n %x\nwant the fixture's\n %x", c.name, img, gen1)
		}
	}
}

func openStoreT(t *testing.T, dir string, opt StoreOptions) (*Store, *RecoveredState) {
	t.Helper()
	st, rec, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", dir, err)
	}
	return st, rec
}

// TestStoreRoundTrip appends a full lifecycle's records, reopens, and
// checks the replayed state record by record.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, rec := openStoreT(t, dir, StoreOptions{})
	if rec.Replayed != 0 || rec.TornTail || len(rec.Jobs) != 0 {
		t.Fatalf("fresh store recovered state: %+v", rec)
	}
	recs := testStoreRecords()
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, rec2 := openStoreT(t, dir, StoreOptions{})
	defer st2.Close()
	if rec2.Replayed != len(recs) || rec2.TornTail {
		t.Fatalf("replayed %d records (torn %v), want %d", rec2.Replayed, rec2.TornTail, len(recs))
	}
	if len(rec2.Tenants) != 1 || rec2.Tenants[0].Name != "acme" || rec2.Tenants[0].Quota.Weight != 3 {
		t.Fatalf("tenants: %+v", rec2.Tenants)
	}
	if rec2.NextTenant != 1 || rec2.NextJob != 6 {
		t.Fatalf("counters: nextTenant=%d nextJob=%d", rec2.NextTenant, rec2.NextJob)
	}
	wantStates := map[uint64]JobState{
		1: Done, 2: Failed, 3: Cancelled, 4: Cancelled, 5: Pending, 6: Running,
	}
	if len(rec2.Jobs) != len(wantStates) {
		t.Fatalf("replayed %d jobs, want %d", len(rec2.Jobs), len(wantStates))
	}
	for i, jr := range rec2.Jobs {
		if jr.ID != uint64(i+1) {
			t.Fatalf("replayed jobs out of ID order: job %d at index %d", jr.ID, i)
		}
		if jr.State != wantStates[jr.ID] {
			t.Errorf("job %d state %v, want %v", jr.ID, jr.State, wantStates[jr.ID])
		}
	}
	if j := rec2.job(1); j.Result != "0xbeef" || j.Started != 11000 || j.Finished != 21000 {
		t.Errorf("done job: %+v", j)
	}
	if j := rec2.job(2); j.Error != "boom" {
		t.Errorf("failed job: %+v", j)
	}
	if j := rec2.job(5); j.Client != "cli-a" || j.Seq != 5 {
		t.Errorf("submit token lost: %+v", j)
	}
}

// TestStoreCompaction crosses the compaction threshold, compacts, and
// verifies the new generation carries the state, is the only file left,
// and — its base alone being larger than the threshold — does not ask
// for another compaction until that much has been appended to it.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStoreT(t, dir, StoreOptions{CompactBytes: 256})
	var full storeState
	for _, r := range testStoreRecords() {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := full.apply(r); err != nil {
			t.Fatal(err)
		}
	}
	if !st.ShouldCompact() {
		t.Fatal("journal under the compaction threshold")
	}
	if err := st.Compact(full); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if base := int64(len(compactedImage(full))); base <= 256 {
		t.Fatalf("base of %d bytes does not exceed the threshold", base)
	}
	if st.ShouldCompact() {
		t.Error("a base larger than CompactBytes asks for compaction again")
	}
	// More records on the new generation survive too.
	post := appendTerminalRec(nil, recDone, 6, "late", 30000)
	if err := st.Append(post); err != nil {
		t.Fatal(err)
	}
	if err := full.apply(post); err != nil {
		t.Fatal(err)
	}
	st.Close()

	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"journal.1.wal"}) {
		t.Fatalf("state directory holds %v, want only journal.1.wal", names)
	}
	st2, rec := openStoreT(t, dir, StoreOptions{CompactBytes: 256})
	defer st2.Close()
	if rec.Replayed != 1 {
		t.Errorf("replayed %d post-compaction records, want 1", rec.Replayed)
	}
	if got, want := recsOf(rec.storeState), recsOf(full); !reflect.DeepEqual(got, want) {
		t.Errorf("state after compaction+replay diverged:\n got %+v\nwant %+v", got, want)
	}
	if st2.ShouldCompact() {
		t.Error("reopened store counts its base against the threshold")
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func isJournalName(name string) bool {
	_, ok := journalGen(name)
	return ok
}

// TestOpenStoreSweepsCrashedCompaction leaves what a crash on either
// side of a compaction's rename leaves — the previous generation, a
// temp file — and expects the highest generation to win and the rest to
// be removed.
func TestOpenStoreSweepsCrashedCompaction(t *testing.T) {
	dir := t.TempDir()
	full := stateOf(testStoreRecords())
	for name, data := range map[string][]byte{
		"journal.3.wal":     journalMagic[:],
		"journal.4.wal":     compactedImage(full),
		"journal.5.wal.tmp": compactedImage(full)[:40],
		"9.wal":             nil, // not a journal name: neither a generation nor swept
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, rec := openStoreT(t, dir, StoreOptions{})
	defer st.Close()
	if !reflect.DeepEqual(recsOf(rec.storeState), recsOf(full)) || rec.Replayed != 0 || rec.TornTail {
		t.Errorf("recovered %+v, want generation 4's base", rec)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"9.wal", "journal.4.wal"}) {
		t.Errorf("state directory holds %v, want journal.4.wal and the file that is not a journal", names)
	}
}

// TestOpenStoreRefusesOldSnapshot: a directory written by a version
// that kept a snapshot.db is refused by name, not half-read.
func TestOpenStoreRefusesOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.db"), []byte{0xAC, 'J', 'S', 0x01}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenStore(dir, StoreOptions{})
	if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, "snapshot.db")) {
		t.Fatalf("OpenStore over a snapshot.db: err %v, want a refusal naming the file", err)
	}
}

// TestStoreFsyncPolicies exercises every policy through an append/
// reopen cycle (the durability difference is invisible to a clean
// close; this pins the plumbing and the interval sync loop).
func TestStoreFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncEvery, FsyncIntervalPolicy, FsyncOff} {
		t.Run(string(pol), func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openStoreT(t, dir, StoreOptions{Fsync: pol, FsyncInterval: time.Millisecond})
			for _, r := range testStoreRecords() {
				if err := st.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if pol == FsyncIntervalPolicy {
				time.Sleep(10 * time.Millisecond) // let the sync loop tick
			}
			st.Close()
			st2, rec := openStoreT(t, dir, StoreOptions{Fsync: pol})
			st2.Close()
			if rec.Replayed != len(testStoreRecords()) {
				t.Errorf("replayed %d, want %d", rec.Replayed, len(testStoreRecords()))
			}
		})
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad fsync policy accepted")
	}
}

// registryRecs is a registry by value — its records without the live
// fields beside them — for comparing registries.
type registryRecs struct {
	NextTenant uint32
	NextJob    uint64
	Tenants    []tenantRec
	Jobs       []jobRec
}

func recsOf(st storeState) registryRecs {
	r := registryRecs{NextTenant: st.NextTenant, NextJob: st.NextJob}
	for _, t := range st.Tenants {
		r.Tenants = append(r.Tenants, t.tenantRec)
	}
	for _, j := range st.Jobs {
		r.Jobs = append(r.Jobs, j.jobRec)
	}
	return r
}

// stateOf reduces records through the reducer replay runs.
func stateOf(recs [][]byte) storeState {
	var st storeState
	for _, r := range recs {
		if err := st.apply(r); err != nil {
			panic(err)
		}
	}
	return st
}

// prefixStates returns the registry after each record count:
// prefixStates[i] holds the first i records applied. These are the only
// registries a corrupted journal may legally replay to.
func prefixStates(recs [][]byte) []registryRecs {
	states := make([]registryRecs, 0, len(recs)+1)
	var cur storeState
	states = append(states, recsOf(cur))
	for _, r := range recs {
		if err := cur.apply(r); err != nil {
			panic(err)
		}
		states = append(states, recsOf(cur))
	}
	return states
}

func stateMatchesPrefix(got storeState, prefixes []registryRecs) int {
	g := recsOf(got)
	for i, p := range prefixes {
		if reflect.DeepEqual(g, p) {
			return i
		}
	}
	return -1
}

// journalImage is one on-disk journal the corruption tests damage: the
// file of a generation, how many leading bytes are its base, and the
// states a replay may land on — tail[i] is the state with the first i
// records after the base applied.
type journalImage struct {
	name string
	gen  uint64
	data []byte
	base int
	tail []registryRecs
}

func (im journalImage) file() string { return fmt.Sprintf("journal.%d.wal", im.gen) }

// journalImages writes testStoreRecords through a real Store twice:
// appended to a fresh generation 0, and with a compaction after the
// first cancel record, so that the base holds a cancelled job and the
// tail cancels another.
func journalImages(t testing.TB) []journalImage {
	recs := testStoreRecords()
	prefixes := prefixStates(recs)
	const split = 13 // tenant, six admits, three starts, done, fail, cancel of job 3
	var images []journalImage
	for _, compactAt := range []int{-1, split} {
		dir := t.TempDir()
		st, _, err := OpenStore(dir, StoreOptions{Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		im := journalImage{name: "plain", tail: prefixes}
		for i, r := range recs {
			if i == compactAt {
				if err := st.Compact(stateOf(recs[:i])); err != nil {
					t.Fatal(err)
				}
				im = journalImage{name: "compacted", gen: 1, base: len(compactedImage(stateOf(recs[:i]))), tail: prefixes[i:]}
			}
			if err := st.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		if im.data, err = os.ReadFile(filepath.Join(dir, im.file())); err != nil {
			t.Fatal(err)
		}
		images = append(images, im)
	}
	return images
}

// TestJournalTruncationEveryOffset truncates the journal at every byte
// offset and requires replay to yield exactly one of the historical
// prefix states — never garbage, never a panic, and never a job state
// (cancelled included) that the surviving record prefix does not
// justify. A compacted generation cut inside its base is typed
// corruption: the base was whole when the rename made it visible.
func TestJournalTruncationEveryOffset(t *testing.T) {
	for _, im := range journalImages(t) {
		t.Run(im.name, func(t *testing.T) {
			dir := t.TempDir()
			cut := filepath.Join(dir, im.file())
			for n := 0; n <= len(im.data); n++ {
				if err := os.WriteFile(cut, im.data[:n], 0o644); err != nil {
					t.Fatal(err)
				}
				st, rec, err := OpenStore(dir, StoreOptions{})
				// A partial header is structural corruption, typed; so is
				// any cut inside a base. An empty generation 0 is a fresh
				// store.
				if n < max(im.base, len(journalMagic)) && (n > 0 || im.gen > 0) {
					if !errors.Is(err, ErrJournalCorrupt) {
						t.Fatalf("truncate@%d: err %v, want ErrJournalCorrupt", n, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("truncate@%d: %v", n, err)
				}
				if i := stateMatchesPrefix(rec.storeState, im.tail); i < 0 {
					st.Close()
					t.Fatalf("truncate@%d: replayed state matches no record prefix: %+v", n, recsOf(rec.storeState))
				} else if i != rec.Replayed {
					st.Close()
					t.Fatalf("truncate@%d: replayed %d records but state matches prefix %d", n, rec.Replayed, i)
				}
				// The truncated tail must not block new appends after recovery.
				if err := st.Append(appendTenantRec(nil, tenantRec{Name: "late", ID: 9})); err != nil {
					t.Fatalf("truncate@%d: post-recovery append: %v", n, err)
				}
				st.Close()
			}
		})
	}
}

// TestJournalBitFlipEveryByte flips a bit in every byte of the journal
// image and requires the same property: replay lands on a historical
// prefix state or fails with the typed corruption error — always the
// latter for a flip inside a base. In particular, a prefix containing a
// job's cancel record always replays that job as Cancelled, whether the
// record sits in the base or in the tail — corruption never resurrects
// it.
func TestJournalBitFlipEveryByte(t *testing.T) {
	for _, im := range journalImages(t) {
		t.Run(im.name, func(t *testing.T) {
			cancelledIn := make([]map[uint64]bool, len(im.tail))
			for i, p := range im.tail {
				cancelledIn[i] = map[uint64]bool{}
				for _, jr := range p.Jobs {
					if jr.State == Cancelled {
						cancelledIn[i][jr.ID] = true
					}
				}
			}
			dir := t.TempDir()
			flip := filepath.Join(dir, im.file())
			for off := 0; off < len(im.data); off++ {
				for _, mask := range []byte{0x01, 0x80} {
					mut := append([]byte(nil), im.data...)
					mut[off] ^= mask
					if err := os.WriteFile(flip, mut, 0o644); err != nil {
						t.Fatal(err)
					}
					st, rec, err := OpenStore(dir, StoreOptions{})
					if err != nil {
						if !errors.Is(err, ErrJournalCorrupt) {
							t.Fatalf("flip@%d/%#x: untyped error %v", off, mask, err)
						}
						continue
					}
					if off < im.base {
						st.Close()
						t.Fatalf("flip@%d/%#x: damage inside the base replayed (%d records)", off, mask, rec.Replayed)
					}
					i := stateMatchesPrefix(rec.storeState, im.tail)
					if i < 0 {
						st.Close()
						t.Fatalf("flip@%d/%#x: replayed state matches no record prefix", off, mask)
					}
					// Cancel resurrection check: every job cancelled in the
					// matched prefix is cancelled in the replayed state too
					// (DeepEqual implies it; keep the explicit check as the
					// property the test is named for).
					for _, jr := range rec.Jobs {
						if cancelledIn[i][jr.ID] && jr.State != Cancelled {
							st.Close()
							t.Fatalf("flip@%d/%#x: cancelled job %d resurrected as %v", off, mask, jr.ID, jr.State)
						}
					}
					st.Close()
				}
			}
		})
	}
}

// FuzzReplayJournal feeds arbitrary bytes to the one reader of the
// state directory. Replay never panics; it fails with the typed error
// or returns the state of an intact record prefix — replaying that
// prefix alone gives the same state with no torn tail — and a
// compaction of whatever it returned is itself replayable, with every
// job's ID and state and both ID counters intact.
func FuzzReplayJournal(f *testing.F) {
	for _, im := range journalImages(f) {
		f.Add(im.data, im.gen > 0)
		f.Add(im.data[:len(im.data)-3], im.gen > 0)
		mut := append([]byte(nil), im.data...)
		mut[len(mut)/2] ^= 0x01
		f.Add(mut, im.gen > 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, based bool) {
		// The bytes as one record body on top of a populated registry:
		// the CRC keeps most mutated frames away from apply.
		st := stateOf(testStoreRecords())
		if err := st.apply(data); err != nil && !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("apply: untyped error %v", err)
		}
		rec, base, valid, err := replayJournal(data, based)
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if base > valid || valid > len(data) || rec.TornTail != (valid < len(data)) || based != (base > 0) {
			t.Fatalf("base %d, valid %d of %d bytes, torn %v, based %v", base, valid, len(data), rec.TornTail, based)
		}
		again, base2, valid2, err := replayJournal(data[:valid], based)
		if err != nil || again.TornTail || base2 != base || valid2 != valid || !reflect.DeepEqual(recsOf(again.storeState), recsOf(rec.storeState)) {
			t.Fatalf("the valid prefix replays differently: err %v, %+v vs %+v", err, again, rec)
		}
		img := compactedImage(rec.storeState)
		back, base3, valid3, err := replayJournal(img, true)
		if err != nil || base3 != len(img) || valid3 != len(img) || back.Replayed != 0 {
			t.Fatalf("compaction of a replayed state does not replay: err %v, base %d, valid %d of %d", err, base3, valid3, len(img))
		}
		if b, r := recsOf(back.storeState), recsOf(rec.storeState); b.NextTenant != r.NextTenant || b.NextJob != r.NextJob ||
			!reflect.DeepEqual(b.Tenants, r.Tenants) || len(b.Jobs) != len(r.Jobs) {
			t.Fatalf("compaction changed the registry: %+v vs %+v", b, r)
		}
		for i, jr := range rec.Jobs {
			if i > 0 && rec.Jobs[i-1].ID >= jr.ID {
				t.Fatalf("replayed jobs out of ID order at %d", i)
			}
			if b := back.Jobs[i]; b.ID != jr.ID || b.State != jr.State {
				t.Fatalf("compaction turned job %d (%v) into job %d (%v)", jr.ID, jr.State, b.ID, b.State)
			}
		}
	})
}
