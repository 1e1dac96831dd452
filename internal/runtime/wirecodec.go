package runtime

import "allscale/internal/wire"

// Hand-written binary codecs for the runtime's envelopes (DESIGN.md §6a
// "Wire formats"). Every RPC and one-way message crosses the transport
// inside one of these, followed by the link's trailer (linkHeader,
// link.go). A body travels last and unprefixed: it ends where the
// trailer begins, so a sender encodes the arguments straight into the
// frame and a receiver reads every field as a view of it.

// appendRequest appends a request's envelope up to its body: the method
// and the caller's rpc.call span (0 = untraced). The call's ID is the
// frame's number on the link.
func appendRequest(buf []byte, method string, span uint64) []byte {
	return wire.AppendUvarint(wire.AppendString(buf, method), span)
}

// readRequest reads what appendRequest wrote, and the body after it.
func readRequest(d *wire.Decoder) (method []byte, span uint64, body []byte) {
	return d.Bytes(), d.Uvarint(), d.Rest()
}

// rpcResponse answers the request numbered ID on the reverse link.
type rpcResponse struct {
	ID   uint64
	Body []byte
	Err  string
}

// AppendWire implements wire.Marshaler.
func (r *rpcResponse) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendString(wire.AppendUvarint(buf, r.ID), r.Err)
	return append(buf, r.Body...), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *rpcResponse) UnmarshalWire(d *wire.Decoder) error {
	r.ID, r.Err, r.Body = d.Uvarint(), d.String(), d.Rest()
	return nil
}

// A one-way message is its method name and then its body.

// appendFulfill appends a fulfilment's envelope up to its value.
func appendFulfill(buf []byte, seq uint64, errStr string) []byte {
	return wire.AppendString(wire.AppendUvarint(buf, seq), errStr)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *fulfillMsg) UnmarshalWire(d *wire.Decoder) error {
	m.Seq, m.Err, m.Value = d.Uvarint(), d.String(), d.Rest()
	return nil
}
