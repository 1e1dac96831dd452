package runtime

import (
	"encoding/binary"
	"sync"
	"time"

	"allscale/internal/trace"
	"allscale/internal/transport"
	"allscale/internal/wire"
)

// One delivery contract per link (DESIGN.md §6d). Each (rank, peer) pair
// is a link with one send sequence and one cumulative ack. Every request,
// reply and one-way frame takes the link's next number and stays in the
// sender's buffer until the peer's ack covers it; one timer per link
// resends what is unacked, sends an owed ack that found no frame to ride
// on, and fails calls past their deadline. The receiver hands frames to
// dispatch in number order, holds early ones and drops any number it has
// already delivered, so a live link delivers each frame exactly once.
//
// The ack a side sends is the highest number below which every frame
// was delivered and every ack-only request's handler has returned: the
// ack is the answer of an ack-only call that succeeded. An ack is taken
// in stream order — with the frame that carries it when that frame is
// delivered, or, for a pure ack, once every frame the peer had numbered
// when it sent the ack is delivered — so an error reply to an ack-only
// call is always seen before an ack that covers the call.

const (
	// ackDelay bounds how long an owed ack waits for a frame to ride on.
	ackDelay = 500 * time.Microsecond
	// rtoMin is the resend interval of a link whose acks progress; it
	// doubles per unanswered resend up to rtoMax.
	rtoMin = 25 * time.Millisecond
	rtoMax = time.Second
)

// linkHeader travels as the trailer of every frame on a link: Seq, Ack
// and Epoch as uvarints and one byte holding their length, with the
// high bit set for a request whose caller wants only the ack. A pure
// ack (kindAcks) is a trailer alone; its Seq is the last number its
// sender had given a frame.
type linkHeader struct {
	Seq, Ack, Epoch uint64
	AckOnly         bool
}

const (
	ackOnlyBit = 0x80
	// maxTrailer bounds a trailer's size.
	maxTrailer = 3*binary.MaxVarintLen64 + 1
)

// appendHeader appends h to a frame's body.
func appendHeader(buf []byte, h linkHeader) []byte {
	n := len(buf)
	buf = binary.AppendUvarint(buf, h.Seq)
	buf = binary.AppendUvarint(buf, h.Ack)
	buf = binary.AppendUvarint(buf, h.Epoch)
	last := byte(len(buf) - n)
	if h.AckOnly {
		last |= ackOnlyBit
	}
	return append(buf, last)
}

// readHeader splits a frame into its body and its trailer; ok is false
// when the trailer is malformed.
func readHeader(p []byte) (h linkHeader, body []byte, ok bool) {
	if len(p) == 0 {
		return h, nil, false
	}
	last := p[len(p)-1]
	n := int(last &^ ackOnlyBit)
	if n < 3 || n > len(p)-1 {
		return h, nil, false
	}
	body, t := p[:len(p)-1-n], p[len(p)-1-n:len(p)-1]
	for _, v := range [...]*uint64{&h.Seq, &h.Ack, &h.Epoch} {
		x, m := binary.Uvarint(t)
		if m <= 0 {
			return h, nil, false
		}
		*v, t = x, t[m:]
	}
	if len(t) != 0 {
		return h, nil, false
	}
	h.AckOnly = last&ackOnlyBit != 0
	return h, body, true
}

// outFrame is a numbered frame the peer has not acked yet.
type outFrame struct {
	seq     uint64
	kind    string
	payload []byte
	// waits: an ack-only call waits for the ack that covers the frame —
	// the call is unresolved until then. fut, when the caller keeps one,
	// is resolved by that ack.
	waits bool
	fut   *Future
}

// pendingCall is one awaited call: the future its reply resolves, the
// rpc.call span and start time that reply closes, and its deadline.
type pendingCall struct {
	meth     string
	fut      *Future
	sp       *trace.Span
	start    time.Time
	deadline int64
}

// link is this locality's half of its link to one peer.
type link struct {
	loc  *Locality
	peer int

	// send is held from numbering a fresh frame to handing it to the
	// transport, so frames enter the transport in number order. A
	// hand-off may block on a full peer; no delivery goroutine ever takes
	// send, so the peer's delivery, which drains it, never waits on it.
	send sync.Mutex

	mu sync.Mutex
	// gone: the peer is dead or departed, or this locality closed; the
	// link holds nothing and takes no frame.
	gone bool

	// The sending half: the last number given, the unacked frames in
	// number order, the awaited calls by request number, the resend
	// interval and the times the next resend and deadline check are due.
	next      uint64
	out       []outFrame
	calls     map[uint64]pendingCall
	rto       time.Duration
	resendAt  int64
	sweepAt   int64
	resending bool

	// The receiving half: the last number delivered, early frames, the
	// ack-only requests whose handlers run, the last ack sent, when the
	// timer next checks for an owed ack (0 = none owed), and whether a
	// duplicate asks for the ack again.
	delivered uint64
	held      map[uint64]transport.Message
	busy      []uint64
	sentAck   uint64
	ackAt     int64
	reack     bool

	// timer is the link's one timer, due to fire at due (0 = not armed).
	timer *time.Timer
	due   int64
}

// ackLocked is the cumulative ack this side gives the peer.
func (k *link) ackLocked() uint64 {
	if len(k.busy) > 0 {
		return k.busy[0] - 1
	}
	return k.delivered
}

// armLocked makes the link's timer fire no later than at.
func (k *link) armLocked(at int64) {
	if k.due != 0 && k.due <= at {
		return
	}
	k.due = at
	d := time.Duration(at - time.Now().UnixNano())
	if k.timer == nil {
		k.timer = time.AfterFunc(d, k.tick)
	} else {
		k.timer.Reset(d)
	}
}

// oweLocked notes that an ack is owed: it rides on the next frame to the
// peer, or leaves on its own once ackDelay has passed. A frame that takes
// the ack along does not disarm the check: the timer finds nothing owed.
func (k *link) oweLocked() {
	if k.ackAt == 0 {
		k.ackAt = time.Now().UnixNano() + int64(ackDelay)
		k.armLocked(k.ackAt)
	}
}

// transmit numbers a frame, keeps it until the peer acks it and hands it
// to the transport. An awaited call registers pc under the frame's
// number before the frame can be answered; an ack-only request waits in
// the frame itself, with fut if its caller keeps one. The frame is kept
// even when the hand-off fails: the link resends it over the next
// connection.
func (k *link) transmit(kind string, body []byte, fut *Future, pc *pendingCall) (uint64, error) {
	ackOnly := kind == kindRequest && pc == nil
	l := k.loc
	k.send.Lock()
	defer k.send.Unlock()
	k.mu.Lock()
	if k.gone {
		k.mu.Unlock()
		return 0, k.goneErr()
	}
	k.next++
	seq := k.next
	ack := k.ackLocked()
	k.sentAck, k.reack = ack, false
	payload := appendHeader(body, linkHeader{Seq: seq, Ack: ack, Epoch: l.epoch.Load(), AckOnly: ackOnly})
	k.out = append(k.out, outFrame{seq: seq, kind: kind, payload: payload, waits: ackOnly, fut: fut})
	if pc != nil {
		if k.calls == nil {
			k.calls = make(map[uint64]pendingCall)
		}
		k.calls[seq] = *pc
		if d := pc.deadline; d != 0 && (k.sweepAt == 0 || d < k.sweepAt) {
			k.sweepAt = d
			k.armLocked(d)
		}
	}
	if k.resendAt == 0 || k.rto > rtoMin {
		// Fresh traffic ends a backoff: after a healed partition the
		// frames before it go again within rtoMin, not rtoMax.
		k.rto = rtoMin
		if at := time.Now().UnixNano() + int64(k.rto); k.resendAt == 0 || at < k.resendAt {
			k.resendAt = at
			k.armLocked(at)
		}
	}
	k.mu.Unlock()
	return seq, l.ep.Send(k.peer, kind, payload)
}

// goneErr is the error of a frame offered to a dropped link.
func (k *link) goneErr() error {
	if k.loc.closed.Load() {
		return errClosed(k.loc.Rank())
	}
	return errGone(k.peer, k.loc.Peer(k.peer))
}

// ackedLocked takes in the peer's cumulative ack: the frames it covers
// leave the buffer, and the futures of their ack-only calls are
// appended to done, for the caller to fulfil once it has let go of the
// lock.
func (k *link) ackedLocked(ack uint64, done []*Future) []*Future {
	n := 0
	for n < len(k.out) && k.out[n].seq <= ack {
		if f := k.out[n].fut; f != nil {
			done = append(done, f)
		}
		n++
	}
	if n == 0 {
		return done
	}
	m := copy(k.out, k.out[n:])
	clear(k.out[m:])
	k.out = k.out[:m]
	k.rto = rtoMin
	k.resendAt = 0
	if m > 0 {
		k.resendAt = time.Now().UnixNano() + int64(k.rto)
		k.armLocked(k.resendAt)
	}
	return done
}

// finish ends an ack-only request's handler: the ack may now pass it.
func (k *link) finish(seq uint64) {
	k.mu.Lock()
	for i, s := range k.busy {
		if s == seq {
			k.busy = append(k.busy[:i], k.busy[i+1:]...)
			break
		}
	}
	if !k.gone && k.ackLocked() > k.sentAck {
		k.oweLocked()
	}
	k.mu.Unlock()
}

// takeCall removes and returns the awaited call seq.
func (k *link) takeCall(seq uint64) (pendingCall, bool) {
	k.mu.Lock()
	pc, ok := k.calls[seq]
	delete(k.calls, seq)
	k.mu.Unlock()
	return pc, ok
}

// failCalls fails every call waiting on the link with err. With keep the
// frames stay, and the next resend redials a broken connection and
// delivers them — but the request of a call failed here goes as a
// blank one-way under its number, so that a call its caller saw fail
// does not run later. An ack-only call nobody waits for (no future) is
// failed to no one, so its request stays and runs. Without keep the
// link is dropped whole.
func (k *link) failCalls(err error, keep bool) {
	k.mu.Lock()
	calls := k.calls
	k.calls = nil
	var futs []*Future
	for i := range k.out {
		f := &k.out[i]
		if _, awaited := calls[f.seq]; f.waits && f.fut != nil || awaited && f.kind == kindRequest {
			if f.fut != nil {
				futs = append(futs, f.fut)
			}
			h, _, _ := readHeader(f.payload)
			f.kind, f.payload = kindOneWay, appendHeader([]byte{wire.FormatBinary, 0}, linkHeader{Seq: f.seq, Ack: h.Ack, Epoch: h.Epoch})
			f.waits, f.fut = false, nil
		}
	}
	if !keep {
		k.gone = true
		k.out, k.held, k.busy = nil, nil, nil
		k.ackAt, k.resendAt, k.sweepAt = 0, 0, 0
		if k.timer != nil {
			k.timer.Stop()
			k.due = 0
		}
	}
	k.mu.Unlock()
	for _, pc := range calls {
		k.loc.resolve(&pc, nil, err)
	}
	for _, f := range futs {
		k.loc.rpcErrors.Inc()
		f.fulfill(nil, err)
	}
}

// tick is the link's timer: it sends an owed ack, resends the unacked
// frames when their interval has passed and fails the calls past their
// deadline, then arms itself for whatever is due next.
func (k *link) tick() {
	l := k.loc
	now := time.Now().UnixNano()
	k.send.Lock()
	k.mu.Lock()
	k.due = 0
	if k.gone {
		k.mu.Unlock()
		k.send.Unlock()
		return
	}
	var ackFrame []byte
	if k.ackAt != 0 && now >= k.ackAt {
		k.ackAt = 0
		if ack := k.ackLocked(); ack > k.sentAck || k.reack {
			k.sentAck, k.reack = ack, false
			ackFrame = appendHeader(nil, linkHeader{Seq: k.next, Ack: ack, Epoch: l.epoch.Load()})
		}
	}
	var resend []outFrame
	if len(k.out) > 0 && k.resendAt != 0 && now >= k.resendAt && !k.resending {
		resend = append(resend, k.out...)
		k.resending = true
		k.rto = min(2*k.rto, rtoMax)
		k.resendAt = now + int64(k.rto)
	}
	var expired []pendingCall
	if k.sweepAt != 0 && now >= k.sweepAt {
		k.sweepAt = 0
		for seq, pc := range k.calls {
			switch {
			case pc.deadline == 0:
			case pc.deadline <= now:
				expired = append(expired, pc)
				delete(k.calls, seq)
			case k.sweepAt == 0 || pc.deadline < k.sweepAt:
				k.sweepAt = pc.deadline
			}
		}
	}
	if len(k.out) == 0 {
		k.resendAt = 0
	}
	next := k.ackAt
	for _, at := range [...]int64{k.resendAt, k.sweepAt} {
		if at != 0 && (next == 0 || at < next) {
			next = at
		}
	}
	if next != 0 {
		k.armLocked(next)
	}
	k.mu.Unlock()
	if ackFrame != nil && !l.Peer(k.peer).Gone() {
		l.rpcAckFrames.Inc() // before the receiver can see the frame
		_ = l.ep.Send(k.peer, kindAcks, ackFrame)
	}
	k.send.Unlock()
	for _, pc := range expired {
		l.rpcTimeouts.Inc()
		l.resolve(&pc, nil, timeoutErr(pc.meth, k.peer))
	}
	if resend != nil {
		// A round ends at its first failed hand-off: toward a peer that
		// cannot be reached it costs one dial, not one per frame.
		for _, f := range resend {
			l.rpcRetries.Inc()
			if l.ep.Send(k.peer, f.kind, f.payload) != nil {
				break
			}
		}
		k.mu.Lock()
		k.resending = false
		k.mu.Unlock()
	}
}

// flushAck sends an owed ack at once (Close): a call that ran here must
// not fail at its caller.
func (k *link) flushAck() {
	k.mu.Lock()
	owed := !k.gone && k.ackLocked() > k.sentAck
	if owed {
		k.ackAt = 1
	}
	k.mu.Unlock()
	if owed {
		k.tick()
	}
}
