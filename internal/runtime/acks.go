package runtime

import (
	"encoding/binary"
	"sync"
	"time"

	"allscale/internal/wire"
)

// Deferred acks (DESIGN.md §6d "Deferred acks"). A call marked AckOnly
// gets no reply frame when its handler succeeds: the server owes the
// caller its ID, and the ID rides in the trailer of the next request or
// response the server sends to that rank — or, when none goes there
// within ackDelay, in one rpc.acks frame holding every ID owed. Error
// replies, dedup replays and awaited calls answer at once.

// ackDelay bounds how long an owed ack waits for a frame to ride on.
const ackDelay = 500 * time.Microsecond

// ackIDs is a run of uvarint call IDs, packed as they travel: an owed
// queue appends to it, an envelope copies it whole, and a decoder keeps a
// view of the frame — no step allocates per ID.
type ackIDs []byte

// readAckIDs reads a length-prefixed run of IDs. The length is bounded
// by the bytes left, and every ID is checked in place.
func readAckIDs(d *wire.Decoder) ackIDs {
	ids := ackIDs(d.Bytes())
	for rest := ids; len(rest) > 0; {
		_, n := binary.Uvarint(rest)
		if n <= 0 {
			d.Failf("malformed ack ID")
			return nil
		}
		rest = rest[n:]
	}
	return ids
}

// ackFrame is the body of an rpc.acks frame: the acks owed to one rank
// that found no envelope to ride on.
type ackFrame struct {
	Epoch uint64
	IDs   ackIDs
}

// ackQueue holds the acks this locality owes one caller rank.
type ackQueue struct {
	mu    sync.Mutex
	ids   ackIDs
	timer *time.Timer // flushes ids ackDelay after the first one
}

// owe records that the ack-only call id of rank to succeeded here.
func (l *Locality) owe(to int, id uint64) {
	q := &l.owed[to]
	q.mu.Lock()
	if len(q.ids) == 0 {
		if q.timer == nil {
			q.timer = time.AfterFunc(ackDelay, func() { l.flushAcks(to) })
		} else {
			q.timer.Reset(ackDelay)
		}
	}
	q.ids = binary.AppendUvarint(q.ids, id)
	q.mu.Unlock()
}

// flushAcks sends the acks owed to rank to in one rpc.acks frame.
func (l *Locality) flushAcks(to int) {
	q := &l.owed[to]
	q.mu.Lock()
	if len(q.ids) == 0 {
		q.mu.Unlock()
		return
	}
	payload, err := wire.Encode(&ackFrame{Epoch: l.epoch.Load(), IDs: q.ids})
	q.ids = q.ids[:0]
	q.mu.Unlock()
	if err == nil && !l.Peer(to).Gone() {
		l.rpcAckFrames.Inc() // before the receiver can see the frame
		_ = l.ep.Send(to, kindAcks, payload)
	}
}

// stamp encodes env, an envelope bound for rank to, with the acks owed
// there in its trailer *acks.
func (l *Locality) stamp(to int, env wire.Marshaler, acks *ackIDs) ([]byte, error) {
	q := &l.owed[to]
	q.mu.Lock()
	defer q.mu.Unlock()
	*acks = q.ids
	payload, err := wire.Encode(env)
	*acks = nil
	if err == nil {
		q.ids = q.ids[:0]
	}
	return payload, err
}

// settleAcks resolves the ack-only calls to rank from whose IDs a frame
// of that rank carried. The frame's epoch has passed the fence.
func (l *Locality) settleAcks(from int, ids ackIDs) {
	for len(ids) > 0 {
		id, n := binary.Uvarint(ids) // n > 0: readAckIDs checked the run
		ids = ids[n:]
		if pc := l.claim(from, id, true); pc != nil {
			l.resolve(pc, nil, nil)
		}
	}
}

// claim removes and returns the outstanding call id if rank from is its
// destination — an answer counts only from the rank that was asked —
// and, for an ack, if the call was marked AckOnly. It returns nil
// otherwise.
func (l *Locality) claim(from int, id uint64, ack bool) *pendingCall {
	key := any(id)
	v, ok := l.calls.Load(key)
	if !ok {
		return nil
	}
	pc := v.(*pendingCall)
	if pc.dst != from || (ack && !pc.ackOnly) || !l.calls.CompareAndDelete(key, v) {
		return nil
	}
	return pc
}
