package jobs

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"allscale/internal/metrics"
	"allscale/internal/wire"
)

// Durable control plane (DESIGN.md §6i): the service's tenant and job
// registry persists as one write-ahead journal, so the daemon can be
// killed at any instant and restart with zero lost or duplicated jobs.
// The state directory holds exactly one file:
//
//	journal.<g>.wal    the registry at generation g
//
// File format (framed, CRC-checked, stdlib only):
//
//	header   0xAC 'J' 'L' 0x01                (4 bytes; 0x01 = version)
//	record   uvarint body length
//	         body   (first byte = record kind)
//	         crc32  IEEE over body            (4 bytes, big-endian)
//
// Generation 0 starts empty and grows by Append. A compaction writes
// generation g+1: a recBase record {count, next tenant ID, next job ID},
// then the reduced registry as the count ordinary records that rebuild
// it (recTenant per tenant in ring order; recAdmit, recStart if started
// and the terminal record if finished, per job in ID order) — the base —
// to journal.<g+1>.wal.tmp, fsynced, renamed, the directory fsynced,
// and generation g removed; appends continue on the same file. One
// reader, replayJournal, reduces either through apply.
//
// Torn tails are expected: a crash mid-append leaves a short or
// CRC-broken final record, which replay drops (the write it framed was
// never acknowledged). Framing damage *stops* replay at the last intact
// record — replay yields a clean prefix, never garbage — and the file is
// truncated back to that prefix before new appends. A base is not a
// tail: it was complete and fsynced before the rename made it visible,
// so a replay of a generation g > 0 that ends inside its base — and a
// bad header or a record sequence that cannot apply anywhere — fails
// with ErrJournalCorrupt instead of guessing.

// FsyncPolicy selects when the journal is flushed to stable storage.
type FsyncPolicy string

const (
	// FsyncEvery syncs after every record, before the triggering
	// operation is acknowledged — full durability, one fsync per
	// admission on the submit path. The default.
	FsyncEvery FsyncPolicy = "every"
	// FsyncIntervalPolicy syncs on a timer (Config.FsyncInterval);
	// a crash can lose the last interval's acknowledged records, but
	// replay still recovers a clean prefix.
	FsyncIntervalPolicy FsyncPolicy = "interval"
	// FsyncOff never syncs explicitly; durability rides on the OS page
	// cache (lost on power failure, survives a process SIGKILL).
	FsyncOff FsyncPolicy = "off"
)

// ParseFsyncPolicy converts a flag string into a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncEvery, FsyncIntervalPolicy, FsyncOff:
		return FsyncPolicy(s), nil
	case "":
		return FsyncEvery, nil
	}
	return "", fmt.Errorf("jobs: unknown fsync policy %q (want every, interval or off)", s)
}

// ErrJournalCorrupt reports structural damage to the persistent state
// that prefix-replay cannot absorb: a broken file header, an impossible
// record sequence, or a damaged compaction base. Replay never panics;
// damage either truncates to a clean prefix or surfaces here.
var ErrJournalCorrupt = errors.New("jobs: journal corrupt")

var journalMagic = [4]byte{0xAC, 'J', 'L', 0x01}

// Journal record kinds.
const (
	recTenant byte = 1 // tenant upsert: name, ID, quota
	recAdmit  byte = 2 // job admitted: spec, footprint, submit token
	recStart  byte = 3 // job dispatched
	recDone   byte = 4 // job completed with a result
	recFail   byte = 5 // job failed with an error
	recCancel byte = 6 // job cancelled (pending or running)
	recBase   byte = 7 // first record of a compacted generation: base record count, ID counters
)

// maxJournalRecord bounds one record's body; a length prefix beyond it
// is treated as tail corruption, so a flipped bit in the frame cannot
// drive a giant allocation.
const maxJournalRecord = 16 << 20

// Journal metric names (locality 0 registry).
const (
	MetricJournalAppends = "jobs.journal.appends" // records appended
	MetricJournalFsyncs  = "jobs.journal.fsyncs"  // explicit syncs issued
	MetricJournalBytes   = "jobs.journal.bytes"   // bytes appended
	// MetricRecoveredTerminal / MetricRecoveredReadmitted count jobs
	// restored at startup as history vs. re-admitted for re-execution.
	MetricRecoveredTerminal   = "jobs.recovered.terminal"
	MetricRecoveredReadmitted = "jobs.recovered.readmitted"
)

// tenantRec is the persisted form of one tenant.
type tenantRec struct {
	Name  string
	ID    uint32
	Quota Quota
}

// jobRec is the persisted form of one job. Times are unix nanos (zero
// = unset); Client/Seq is the submit token that makes retried
// submissions exactly-once across restarts.
type jobRec struct {
	ID        uint64
	Tenant    uint32
	Family    string
	Params    []byte
	Bytes     int64
	State     JobState
	Result    string
	Error     string
	Submitted int64
	Started   int64
	Finished  int64
	Client    string
	Seq       uint64
}

// storeState is the registry: tenants and jobs as their records, with
// the live-only fields the service keeps beside them (service.go). It is
// what replay reduces the journal to, what the service runs on and what
// a compaction writes. The reducer below is the one place a persisted
// field changes: replay applies each record through it, and the service
// applies each record it has just appended through the same methods.
type storeState struct {
	NextTenant uint32
	NextJob    uint64
	Tenants    []*tenant // ring (registration) order
	Jobs       []*job    // ID order
}

// search finds where job id is, or would be, in Jobs (ID-sorted).
func (st *storeState) search(id uint64) (int, bool) {
	return slices.BinarySearchFunc(st.Jobs, id, func(j *job, id uint64) int { return cmp.Compare(j.ID, id) })
}

// job finds a job by ID; nil if it is unknown.
func (st *storeState) job(id uint64) *job {
	if i, ok := st.search(id); ok {
		return st.Jobs[i]
	}
	return nil
}

// tenant finds a tenant by ID; nil if it is unknown.
func (st *storeState) tenant(id uint32) *tenant {
	if i := slices.IndexFunc(st.Tenants, func(t *tenant) bool { return t.ID == id }); i >= 0 {
		return st.Tenants[i]
	}
	return nil
}

// upsertTenant applies a tenant record: a new ID joins the ring, a known
// one takes the record's quota.
func (st *storeState) upsertTenant(tr tenantRec) (*tenant, error) {
	if tr.Name == "" {
		return nil, fmt.Errorf("%w: tenant %d has no name", ErrJournalCorrupt, tr.ID)
	}
	tr.Quota = tr.Quota.normalized()
	t := st.tenant(tr.ID)
	if t == nil {
		t = &tenant{}
		st.Tenants = append(st.Tenants, t)
		st.NextTenant = max(st.NextTenant, tr.ID)
	}
	t.tenantRec = tr
	return t, nil
}

// admit applies an admission record: the job joins the registry,
// Pending, under its tenant.
func (st *storeState) admit(jr jobRec) (*job, error) {
	t := st.tenant(jr.Tenant)
	if t == nil {
		return nil, fmt.Errorf("%w: job %d of unknown tenant %d", ErrJournalCorrupt, jr.ID, jr.Tenant)
	}
	// IDs arrive ascending, so the insert is an append in practice.
	i, dup := st.search(jr.ID)
	if dup {
		return nil, fmt.Errorf("%w: job %d admitted twice", ErrJournalCorrupt, jr.ID)
	}
	j := &job{jobRec: jr, ten: t, done: make(chan struct{})}
	st.Jobs = slices.Insert(st.Jobs, i, j)
	st.NextJob = max(st.NextJob, jr.ID)
	return j, nil
}

// start applies a dispatch record.
func (j *job) start(at int64) {
	j.State, j.Started = Running, at
}

// end applies a terminal record of the given kind.
func (j *job) end(kind byte, msg string, at int64) {
	j.Finished = at
	switch kind {
	case recDone:
		j.State, j.Result = Done, msg
	case recFail:
		j.State, j.Error = Failed, msg
	case recCancel:
		j.State, j.Error = Cancelled, msg
	}
}

// apply decodes one journal record and folds it into the registry. A
// record that cannot apply (a transition of an unknown job, an admission
// under an unknown tenant) is structural corruption: the journal is
// strictly ordered, so a valid prefix never references what it has not
// recorded.
func (st *storeState) apply(body []byte) error {
	if len(body) == 0 {
		return fmt.Errorf("%w: empty record", ErrJournalCorrupt)
	}
	d := wire.NewDecoder(body[1:])
	switch body[0] {
	case recTenant:
		tr := tenantRec{Name: d.String(), ID: uint32(d.Uvarint())}
		tr.Quota = Quota{
			MaxActive:  d.Int(),
			MaxPending: d.Int(),
			MaxBytes:   d.Varint(),
			Weight:     d.Int(),
		}
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: tenant record: %v", ErrJournalCorrupt, err)
		}
		_, err := st.upsertTenant(tr)
		return err
	case recAdmit:
		jr := jobRec{
			ID:        d.Uvarint(),
			Tenant:    uint32(d.Uvarint()),
			Family:    d.String(),
			Params:    append([]byte(nil), d.Bytes()...),
			Bytes:     d.Varint(),
			Submitted: d.Varint(),
			Client:    d.String(),
			Seq:       d.Uvarint(),
		}
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: admit record: %v", ErrJournalCorrupt, err)
		}
		_, err := st.admit(jr)
		return err
	case recStart:
		id, at := d.Uvarint(), d.Varint()
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: start record: %v", ErrJournalCorrupt, err)
		}
		j := st.job(id)
		if j == nil {
			return fmt.Errorf("%w: start of unknown job %d", ErrJournalCorrupt, id)
		}
		j.start(at)
	case recDone, recFail, recCancel:
		id, msg, at := d.Uvarint(), d.String(), d.Varint()
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: terminal record: %v", ErrJournalCorrupt, err)
		}
		j := st.job(id)
		if j == nil {
			return fmt.Errorf("%w: terminal record for unknown job %d", ErrJournalCorrupt, id)
		}
		j.end(body[0], msg, at)
	case recBase:
		return fmt.Errorf("%w: base record is not the first of a compacted generation", ErrJournalCorrupt)
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrJournalCorrupt, body[0])
	}
	return nil
}

// Record body encoders (the kind byte leads each body).

func appendTenantRec(buf []byte, tr tenantRec) []byte {
	buf = append(buf, recTenant)
	buf = wire.AppendString(buf, tr.Name)
	buf = wire.AppendUvarint(buf, uint64(tr.ID))
	buf = wire.AppendVarint(buf, int64(tr.Quota.MaxActive))
	buf = wire.AppendVarint(buf, int64(tr.Quota.MaxPending))
	buf = wire.AppendVarint(buf, tr.Quota.MaxBytes)
	buf = wire.AppendVarint(buf, int64(tr.Quota.Weight))
	return buf
}

func appendAdmitRec(buf []byte, jr jobRec) []byte {
	buf = append(buf, recAdmit)
	buf = wire.AppendUvarint(buf, jr.ID)
	buf = wire.AppendUvarint(buf, uint64(jr.Tenant))
	buf = wire.AppendString(buf, jr.Family)
	buf = wire.AppendBytes(buf, jr.Params)
	buf = wire.AppendVarint(buf, jr.Bytes)
	buf = wire.AppendVarint(buf, jr.Submitted)
	buf = wire.AppendString(buf, jr.Client)
	buf = wire.AppendUvarint(buf, jr.Seq)
	return buf
}

func appendStartRec(buf []byte, id uint64, at int64) []byte {
	buf = append(buf, recStart)
	buf = wire.AppendUvarint(buf, id)
	buf = wire.AppendVarint(buf, at)
	return buf
}

func appendTerminalRec(buf []byte, kind byte, id uint64, msg string, at int64) []byte {
	buf = append(buf, kind)
	buf = wire.AppendUvarint(buf, id)
	buf = wire.AppendString(buf, msg)
	buf = wire.AppendVarint(buf, at)
	return buf
}

// appendFrame frames one record body: length, body, CRC.
func appendFrame(buf, body []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
}

// compactedImage is a whole compacted generation: the header, the
// recBase record, and the records that rebuild state through apply.
func compactedImage(state storeState) []byte {
	var recs, body []byte // the framed records; one body, reused
	count := uint64(0)
	add := func(b []byte) {
		recs, body, count = appendFrame(recs, b), b[:0], count+1
	}
	for _, t := range state.Tenants {
		add(appendTenantRec(body, t.tenantRec))
	}
	for _, j := range state.Jobs {
		add(appendAdmitRec(body, j.jobRec))
		if j.State == Running || j.Started != 0 {
			add(appendStartRec(body, j.ID, j.Started))
		}
		switch j.State {
		case Done:
			add(appendTerminalRec(body, recDone, j.ID, j.Result, j.Finished))
		case Failed:
			add(appendTerminalRec(body, recFail, j.ID, j.Error, j.Finished))
		case Cancelled:
			add(appendTerminalRec(body, recCancel, j.ID, j.Error, j.Finished))
		}
	}
	base := wire.AppendUvarint([]byte{recBase}, count)
	base = wire.AppendUvarint(base, uint64(state.NextTenant))
	base = wire.AppendUvarint(base, state.NextJob)
	img := make([]byte, 0, len(journalMagic)+len(base)+8+len(recs))
	img = appendFrame(append(img, journalMagic[:]...), base)
	return append(img, recs...)
}

// Store is the durable registry: one append-only journal inside a state
// directory. Append is safe for concurrent use; the service additionally
// serializes appends and compactions under its own mutex so journal
// order matches registry mutation order.
type Store struct {
	dir       string
	policy    FsyncPolicy
	interval  time.Duration
	compactAt int64

	mu    sync.Mutex
	f     *os.File
	gen   uint64
	tail  int64 // bytes appended since the base (the whole file at generation 0)
	dirty bool

	stop     chan struct{}
	syncDone chan struct{}

	appends, fsyncs, bytes *metrics.Counter
}

// RecoveredState is what OpenStore replayed: the reconstructed
// registry plus recovery diagnostics.
type RecoveredState struct {
	storeState
	// Replayed counts journal records applied on top of the base.
	Replayed int
	// TornTail reports that a short or corrupt journal tail was
	// dropped (and truncated away) during recovery.
	TornTail bool
}

// StoreOptions tunes a Store.
type StoreOptions struct {
	Fsync         FsyncPolicy
	FsyncInterval time.Duration // FsyncIntervalPolicy period, default 25ms
	CompactBytes  int64         // bytes appended since the base that trigger compaction, default 8MB
	Metrics       *metrics.Registry
}

// OpenStore opens (or initializes) a state directory: it replays the
// highest-generation journal, truncates any torn tail, removes what a
// crash mid-compaction left behind (lower generations, temp files), and
// leaves the journal open for appends.
func OpenStore(dir string, opt StoreOptions) (*Store, *RecoveredState, error) {
	if opt.Fsync == "" {
		opt.Fsync = FsyncEvery
	}
	if opt.FsyncInterval <= 0 {
		opt.FsyncInterval = 25 * time.Millisecond
	}
	if opt.CompactBytes <= 0 {
		opt.CompactBytes = 8 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: state dir: %w", err)
	}
	st := &Store{
		dir:       dir,
		policy:    opt.Fsync,
		interval:  opt.FsyncInterval,
		compactAt: opt.CompactBytes,
		stop:      make(chan struct{}),
		syncDone:  make(chan struct{}),
	}
	reg := opt.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	st.appends = reg.Counter(MetricJournalAppends)
	st.fsyncs = reg.Counter(MetricJournalFsyncs)
	st.bytes = reg.Counter(MetricJournalBytes)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: state dir: %w", err)
	}
	for _, e := range entries {
		if e.Name() == "snapshot.db" {
			return nil, nil, fmt.Errorf("jobs: %s is a registry snapshot of an older format that is no longer read; start from an empty state directory", filepath.Join(dir, e.Name()))
		}
		if g, ok := journalGen(e.Name()); ok && g > st.gen {
			st.gen = g
		}
	}
	jpath := st.journalPath(st.gen)
	data, err := os.ReadFile(jpath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("jobs: read journal: %w", err)
	}
	rec, base, valid := &RecoveredState{}, 0, 0
	if len(data) > 0 || st.gen > 0 {
		if rec, base, valid, err = replayJournal(data, st.gen > 0); err != nil {
			return nil, nil, err
		}
	}

	f, err := os.OpenFile(jpath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: open journal: %w", err)
	}
	if len(data) == 0 {
		if _, err := f.Write(journalMagic[:]); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("jobs: init journal: %w", err)
		}
		valid = len(journalMagic)
	} else if valid < len(data) {
		// Drop the torn tail so the next append starts on a frame
		// boundary.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("jobs: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobs: seek journal: %w", err)
	}
	st.f, st.tail = f, int64(valid-base)
	// What a crash mid-compaction leaves behind: the temp file before
	// the rename, the previous generation after it.
	for _, e := range entries {
		name, isTmp := strings.CutSuffix(e.Name(), ".tmp")
		if g, ok := journalGen(name); ok && (isTmp || g != st.gen) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	if st.policy == FsyncIntervalPolicy {
		go st.syncLoop()
	} else {
		close(st.syncDone)
	}
	return st, rec, nil
}

func (st *Store) journalPath(gen uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("journal.%d.wal", gen))
}

// journalGen parses the generation out of a journal file name.
func journalGen(name string) (uint64, bool) {
	mid, pre := strings.CutPrefix(name, "journal.")
	mid, suf := strings.CutSuffix(mid, ".wal")
	g, err := strconv.ParseUint(mid, 10, 64)
	return g, pre && suf && err == nil
}

// replayJournal reduces a journal image to the registry it records. It
// returns the state after every intact record, the byte length of the
// base (zero at generation 0) and of the whole valid prefix. After the
// header, damage degrades to a prefix — except inside the base of a
// compacted generation (based: a recBase record, then the count records
// it announces), which was whole when it became visible: a replay that
// ends inside it is structural (typed) corruption, like a broken header
// or a record that cannot apply.
func replayJournal(data []byte, based bool) (rec *RecoveredState, baseLen, validLen int, err error) {
	if len(data) < len(journalMagic) || string(data[:len(journalMagic)]) != string(journalMagic[:]) {
		return nil, 0, 0, fmt.Errorf("%w: bad journal header", ErrJournalCorrupt)
	}
	rec = &RecoveredState{}
	off := len(journalMagic)
	var baseLeft uint64 // records of the base still to come
	if based {
		baseLeft = 1
	}
	for off < len(data) {
		ln, n := binary.Uvarint(data[off:])
		if n <= 0 || ln > maxJournalRecord {
			break
		}
		end := off + n + int(ln) + 4
		if end > len(data) {
			break
		}
		body := data[off+n : off+n+int(ln)]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[end-4:end]) {
			break
		}
		if based && off == len(journalMagic) {
			if len(body) == 0 || body[0] != recBase {
				return nil, 0, 0, fmt.Errorf("%w: compacted generation does not start with a base record", ErrJournalCorrupt)
			}
			d := wire.NewDecoder(body[1:])
			baseLeft, rec.NextTenant, rec.NextJob = d.Uvarint(), uint32(d.Uvarint()), d.Uvarint()
			if err := d.Err(); err != nil {
				return nil, 0, 0, fmt.Errorf("%w: base record: %v", ErrJournalCorrupt, err)
			}
		} else if err := rec.apply(body); err != nil {
			return nil, 0, 0, err
		} else if baseLeft > 0 {
			baseLeft--
		} else {
			rec.Replayed++
		}
		off = end
		if based && baseLen == 0 && baseLeft == 0 {
			baseLen = off
		}
	}
	if baseLeft > 0 {
		return nil, 0, 0, fmt.Errorf("%w: compaction base is damaged %d bytes in (%d records short)", ErrJournalCorrupt, off, baseLeft)
	}
	rec.TornTail = off < len(data)
	return rec, baseLen, off, nil
}

// Append frames one record body onto the journal and applies the fsync
// policy. With FsyncEvery the record is durable when Append returns —
// the caller must not acknowledge the operation before that.
func (st *Store) Append(body []byte) error {
	frame := appendFrame(make([]byte, 0, len(body)+10), body)

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return fmt.Errorf("jobs: journal closed")
	}
	if _, err := st.f.Write(frame); err != nil {
		return fmt.Errorf("jobs: journal append: %w", err)
	}
	st.tail += int64(len(frame))
	st.appends.Inc()
	st.bytes.Add(uint64(len(frame)))
	switch st.policy {
	case FsyncEvery:
		st.fsyncs.Inc()
		if err := st.f.Sync(); err != nil {
			return fmt.Errorf("jobs: journal fsync: %w", err)
		}
	default:
		st.dirty = true
	}
	return nil
}

// ShouldCompact reports that the records appended since the base
// outgrew the compaction threshold. The base itself does not count: a
// registry larger than the threshold would otherwise compact after
// every record.
func (st *Store) ShouldCompact() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tail >= st.compactAt
}

// syncLoop drives the interval fsync policy.
func (st *Store) syncLoop() {
	defer close(st.syncDone)
	t := time.NewTicker(st.interval)
	defer t.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-t.C:
			st.mu.Lock()
			if st.f != nil && st.dirty {
				st.dirty = false
				st.fsyncs.Inc()
				st.f.Sync()
			}
			st.mu.Unlock()
		}
	}
}

// Compact rewrites the journal as the reduced registry: generation g+1
// opens with state as its base and takes the appends from here on, and
// generation g is removed. Crash-ordered under every fsync policy: the
// image is written to a temp file, fsynced, renamed to its generation's
// name, and the directory synced before the old generation goes away —
// every intermediate state recovers. state must hold every record
// appended so far applied: the caller passes its registry under the lock
// it appends under.
func (st *Store) Compact(state storeState) error {
	img := compactedImage(state)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return fmt.Errorf("jobs: journal closed")
	}
	path := st.journalPath(st.gen + 1)
	nf, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: compaction temp: %w", err)
	}
	if _, err = nf.Write(img); err != nil {
		err = fmt.Errorf("jobs: compaction write: %w", err)
	} else if err = nf.Sync(); err != nil {
		err = fmt.Errorf("jobs: compaction fsync: %w", err)
	} else if err = os.Rename(path+".tmp", path); err != nil {
		err = fmt.Errorf("jobs: compaction rename: %w", err)
	}
	if err != nil {
		nf.Close()
		os.Remove(path + ".tmp")
		return err
	}
	if d, err := os.Open(st.dir); err == nil {
		d.Sync()
		d.Close()
	}
	old := st.f
	st.f, st.gen, st.tail, st.dirty = nf, st.gen+1, 0, false
	old.Close()
	os.Remove(st.journalPath(st.gen - 1))
	return nil
}

// Close syncs and closes the journal (idempotent).
func (st *Store) Close() error {
	st.mu.Lock()
	if st.f == nil {
		st.mu.Unlock()
		return nil
	}
	f := st.f
	st.f = nil
	st.mu.Unlock()
	close(st.stop)
	<-st.syncDone
	if st.policy != FsyncOff {
		f.Sync()
	}
	return f.Close()
}
