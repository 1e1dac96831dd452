package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"allscale/internal/wire"
)

// Future is the consumption side of a promise: a single value (a
// wire-encoded task result) delivered exactly once, possibly from a
// remote locality. Futures model the treeture-style task results of
// the AllScale API.
type Future struct {
	mu      sync.Mutex
	done    atomic.Bool
	settled atomic.Bool // see Settled
	// ch is made by the first waiter that has to block (Ready): a future
	// fulfilled first — a child its spawner ran inline — never has one.
	ch    chan struct{}
	value []byte
	err   error
	// helper, when set, is offered the waiting goroutine by Wait.
	helper WaitHelper
	// then, when set, is called with the error at fulfilment (OnDone).
	then func(error)
}

// WaitHelper puts a goroutine that is about to block in Future.Wait
// to use. The scheduler implements it for futures spawned by a task,
// so that a join costs nothing but its wait: the worker the task
// occupies runs queued tasks instead of sleeping on them.
type WaitHelper interface {
	// HelpWait runs on the waiting goroutine and returns once f is
	// fulfilled (f.Done()); to block it waits on f.Ready().
	HelpWait(f *Future)
}

// SetWaitHelper installs the helper of a future. It must be called
// before the future is handed to the goroutine that waits on it.
func (f *Future) SetWaitHelper(h WaitHelper) { f.helper = h }

// fulfill delivers the value; subsequent calls are ignored. It settles
// f last.
func (f *Future) fulfill(value []byte, err error) {
	f.mu.Lock()
	if f.done.Load() {
		f.mu.Unlock()
		return
	}
	f.value, f.err = value, err
	f.done.Store(true)
	if f.ch != nil {
		close(f.ch)
	}
	then := f.then
	f.then = nil
	f.mu.Unlock()
	if then != nil {
		then(err)
	}
	f.settled.Store(true)
}

// OnDone calls fn with the future's error once it is fulfilled — at
// once if it already is — in place of a goroutine parked in Wait. fn runs
// on the fulfilling goroutine, which may hold a link's lock: it must not
// block or call into the runtime; hand work off with Locality.Go. A
// future takes one fn.
func (f *Future) OnDone(fn func(err error)) {
	f.mu.Lock()
	if !f.done.Load() {
		f.then = fn
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	fn(f.err)
}

// Fulfill resolves an unnamed future (see NamePromise) in place with
// value, wire-encoded as FulfillRemote would, or with err; a value with
// no wire form fails the future with the encoding error. Subsequent
// calls are ignored.
func (f *Future) Fulfill(value any, err error) {
	body, encErr := wire.Encode(value)
	if err == nil && encErr != nil {
		err = encErr
	}
	f.fulfill(body, err)
}

// Wait blocks until the future is fulfilled and returns the raw
// encoded value.
func (f *Future) Wait() ([]byte, error) {
	if !f.done.Load() && f.helper != nil {
		f.helper.HelpWait(f)
	}
	if !f.done.Load() {
		<-f.Ready()
	}
	return f.value, f.err
}

// Ready is closed once the future is fulfilled, for a waiter that
// selects on it: Wait would return at once.
func (f *Future) Ready() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ch == nil {
		f.ch = make(chan struct{})
		if f.done.Load() {
			close(f.ch)
		}
	}
	return f.ch
}

// Done reports fulfilment without blocking.
func (f *Future) Done() bool { return f.done.Load() }

// Settled reports that the future is fulfilled and its fulfiller has
// let go of it: a waiter that sees it may reuse the future's memory.
func (f *Future) Settled() bool { return f.settled.Load() }

// WaitInto decodes the fulfilled value into out.
func (f *Future) WaitInto(out any) error {
	v, err := f.Wait()
	if err != nil {
		return err
	}
	return wire.Decode(v, out)
}

// PromiseID globally names a promise: the locality that owns it plus
// a locality-unique sequence number.
type PromiseID struct {
	Owner int
	Seq   uint64
}

func (id PromiseID) String() string { return fmt.Sprintf("p%d.%d", id.Owner, id.Seq) }

// promiseTable holds the unfulfilled promises this locality owns, by
// sequence number: a map per stripe under its own mutex, so a store
// allocates neither a boxed key nor an entry node and spawners on
// different workers seldom meet on one lock.
type promiseTable [16]struct {
	mu sync.Mutex
	m  map[uint64]*Future
}

// swap stores f under seq — removes the entry when f is nil — and
// returns what was there, nil when the promise was not pending.
func (t *promiseTable) swap(seq uint64, f *Future) *Future {
	s := &t[seq%uint64(len(t))]
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.m[seq]
	if f == nil {
		delete(s.m, seq)
	} else if s.m == nil {
		s.m = map[uint64]*Future{seq: f}
	} else {
		s.m[seq] = f
	}
	return old
}

func (t *promiseTable) pending(seq uint64) bool {
	s := &t[seq%uint64(len(t))]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[seq] != nil
}

// failAll removes every pending promise and fails it with err (Close).
func (t *promiseTable) failAll(err error) {
	for i := range t {
		t[i].mu.Lock()
		m := t[i].m
		t[i].m = nil
		t[i].mu.Unlock()
		for _, f := range m {
			f.fulfill(nil, err)
		}
	}
}

// NamePromise enters f, a future nobody has fulfilled yet, in this
// locality's promise table and returns the name under which any
// locality may fulfil it (FulfillRemote). A future is named only when
// something remote must answer it: a task that leaves the rank it was
// spawned on carries the name, one that stays resolves its future in
// place (Fulfill).
func (l *Locality) NamePromise(f *Future) PromiseID {
	id := PromiseID{Owner: l.Rank(), Seq: l.nextPromise.Add(1)}
	l.promises.swap(id.Seq, f)
	l.promisesNamed.Inc()
	// Close fails the promises it finds after setting closed; one stored
	// behind that sweep — by a task still unwinding on a killed locality
	// — would strand its waiter, so it is failed here.
	if l.closed.Load() {
		l.fulfillLocal(id.Seq, nil, fmt.Sprintf("runtime: locality %d closed", l.Rank()))
	}
	return id
}

// PromisePending reports whether a promise owned by this locality is
// still unfulfilled. It is false for promises owned elsewhere — only
// the owner tracks fulfilment. The recovery layer uses it to decide
// whether a task lost on a dead rank still has a waiter.
func (l *Locality) PromisePending(id PromiseID) bool {
	return id.Owner == l.Rank() && l.promises.pending(id.Seq)
}

// fulfillLocal resolves a promise owned by this locality.
func (l *Locality) fulfillLocal(seq uint64, value []byte, errStr string) {
	if f := l.promises.swap(seq, nil); f != nil {
		var err error
		if errStr != "" {
			err = fmt.Errorf("%s", errStr)
		}
		f.fulfill(value, err)
	}
}

type fulfillMsg struct {
	Seq   uint64
	Value []byte
	Err   string
}

const methodFulfill = "runtime.fulfill"

// RegisterPromiseService installs the promise-fulfilment handler;
// Systems do this automatically. Fulfilment is an ack-only RPC (not a
// one-way message) so the caller learns that the owner took it in.
// Re-fulfilling is harmless: fulfillLocal deletes the promise on first
// delivery and ignores the rest.
func (l *Locality) RegisterPromiseService() {
	l.Handle(methodFulfill, func(_ int, body []byte) ([]byte, error) {
		var m fulfillMsg
		var d wire.Decoder
		if err := d.Reset(body); err != nil {
			return nil, err
		}
		if m.UnmarshalWire(&d); d.Finish() != nil {
			return nil, d.Finish()
		}
		l.fulfillLocal(m.Seq, m.Value, m.Err)
		return nil, nil
	})
}

// FulfillRemote resolves the promise id (owned by any locality) with
// the given value; err, when non-nil, is transported as a string.
// Remote fulfilment is fire-and-forget: an ack-only call whose frame
// the link resends until the owner acks it, and whose outcome nobody
// waits for — no future is kept.
func (l *Locality) FulfillRemote(id PromiseID, value any, err error) error {
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	if id.Owner == l.Rank() {
		body, encErr := wire.Encode(value)
		if encErr != nil {
			return encErr
		}
		l.fulfillLocal(id.Seq, body, errStr)
		return nil
	}
	pc := pendingCall{meth: methodFulfill, sp: l.Tracer().Begin("rpc.call", methodFulfill, 0)}
	frame := appendRequest(append(make([]byte, 0, 64+len(errStr)), wire.FormatBinary), methodFulfill, uint64(pc.sp.SpanID()))
	head := len(frame)
	frame, encErr := wire.AppendEncode(appendFulfill(append(frame, wire.FormatBinary), id.Seq, errStr), value)
	if encErr != nil {
		pc.sp.End()
		return encErr
	}
	l.call(id.Owner, frame, head, nil, pc, CallSpec{ackOnly: true})
	return nil
}
