package transport

import (
	"net"
	"testing"
)

// BenchmarkTCPFrameBurst measures the receive path per frame when the
// peer's flusher has coalesced a burst: one op is 64 small frames
// written as one segment over a loopback socket and delivered to the
// handler. allocs/op is per burst — the payload slices, and nothing
// per frame beside them.
func BenchmarkTCPFrameBurst(b *testing.B) {
	const burst = 64
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	e, err := NewTCPEndpoint(0, addrs)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	delivered := make(chan struct{}, 1)
	n := 0
	e.SetHandler(func(Message) {
		if n++; n%burst == 0 {
			delivered <- struct{}{}
		}
	})
	var segment []byte
	for i := 0; i < burst; i++ {
		segment = appendFrame(segment, 1, "rpc.rsp", []byte("0123456789abcdef"))
	}
	c, err := net.Dial("tcp", e.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(segment); err != nil {
			b.Fatal(err)
		}
		<-delivered
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/frame")
}
