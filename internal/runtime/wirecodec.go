package runtime

import "allscale/internal/wire"

// Hand-written binary codecs for the runtime's hot envelope types
// (DESIGN.md §6a "Wire formats"). Every RPC and one-way message
// crosses the transport inside one of these.

// AppendWire implements wire.Marshaler. The delivery-semantics
// trailer (Span, Epoch, Ack as uvarints, the AckOnly byte, the owed
// acks as a length-prefixed run of uvarints) travels last: an untraced,
// unsupervised call in epoch 0 that carries no acks writes five zero
// bytes.
func (r *rpcRequest) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, r.ID)
	buf = wire.AppendString(buf, r.Method)
	buf = wire.AppendBytes(buf, r.Body)
	buf = wire.AppendUvarint(buf, r.Span)
	buf = wire.AppendUvarint(buf, r.Epoch)
	buf = wire.AppendUvarint(buf, r.Ack)
	buf = wire.AppendBool(buf, r.AckOnly)
	return wire.AppendBytes(buf, r.Acks), nil
}

// UnmarshalWire implements wire.Unmarshaler. Body and Acks alias the
// input payload, which is owned by this message's dispatch.
func (r *rpcRequest) UnmarshalWire(d *wire.Decoder) error {
	r.ID = d.Uvarint()
	r.Method = d.String()
	r.Body = d.Bytes()
	r.Span = d.Uvarint()
	r.Epoch = d.Uvarint()
	r.Ack = d.Uvarint()
	r.AckOnly = d.Bool()
	r.Acks = readAckIDs(d)
	return nil
}

// AppendWire implements wire.Marshaler. The owed acks trail, as in a
// request.
func (r *rpcResponse) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, r.ID)
	buf = wire.AppendBytes(buf, r.Body)
	buf = wire.AppendString(buf, r.Err)
	buf = wire.AppendUvarint(buf, r.Epoch)
	return wire.AppendBytes(buf, r.Acks), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *rpcResponse) UnmarshalWire(d *wire.Decoder) error {
	r.ID = d.Uvarint()
	r.Body = d.Bytes()
	r.Err = d.String()
	r.Epoch = d.Uvarint()
	r.Acks = readAckIDs(d)
	return nil
}

// AppendWire implements wire.Marshaler.
func (f *ackFrame) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, f.Epoch)
	return wire.AppendBytes(buf, f.IDs), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (f *ackFrame) UnmarshalWire(d *wire.Decoder) error {
	f.Epoch = d.Uvarint()
	f.IDs = readAckIDs(d)
	return nil
}

// AppendWire implements wire.Marshaler.
func (m *oneWayMsg) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendString(buf, m.Method)
	buf = wire.AppendBytes(buf, m.Body)
	return wire.AppendUvarint(buf, m.Epoch), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *oneWayMsg) UnmarshalWire(d *wire.Decoder) error {
	m.Method = d.String()
	m.Body = d.Bytes()
	m.Epoch = d.Uvarint()
	return nil
}

// AppendWire implements wire.Marshaler.
func (m *fulfillMsg) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, m.Seq)
	buf = wire.AppendBytes(buf, m.Value)
	return wire.AppendString(buf, m.Err), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *fulfillMsg) UnmarshalWire(d *wire.Decoder) error {
	m.Seq = d.Uvarint()
	m.Value = d.Bytes()
	m.Err = d.String()
	return nil
}
