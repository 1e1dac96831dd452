package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"allscale/internal/core"
)

// protoSeeds are request lines of every op, well- and ill-formed.
var protoSeeds = []string{
	`{"op":"list"}`,
	`{"op":"tenants"}`,
	`{"op":"status","job":1}`,
	`{"op":"wait","job":7}`,
	`{"op":"cancel","job":3}`,
	`{"op":"submit","tenant":"a","family":"pfor","params":{"levels":3},"client":"c","seq":1,"ack":0}`,
	`{"op":"shutdown"}`,
	`{"op":"bogus"}`,
	`{"op":1}`,
	`{"job":-1}`,
	`{"op":"status","job":"x"}`,
	`[1,2`,
	`not json`,
	`null`,
	" ",
	"x\r",
	`{"op":"list"}{"op":"list"}`,
}

// FuzzServerLine: whatever one request line holds, the server answers
// it with exactly one reply line — an error when the line is not a
// request — without panicking, and the connection then answers the
// next valid request. The service behind it is drained, so no line can
// start a job or block a wait.
func FuzzServerLine(f *testing.F) {
	sys := core.NewSystem(core.Config{Localities: 1, Workers: 1})
	w := RegisterWorkloads(sys, WorkloadConfig{})
	sys.Start()
	svc := New(sys, w, Config{})
	if err := svc.Drain(time.Second); err != nil {
		f.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	srv := Serve(svc, ln, nil)
	f.Cleanup(func() {
		srv.Close()
		svc.Close()
		sys.Close()
	})
	for _, s := range protoSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		line = bytes.ReplaceAll(line, []byte("\n"), []byte(" "))
		if len(bytes.TrimSuffix(line, []byte("\r"))) == 0 || len(line) > 64<<10 {
			return // a blank line is skipped by design; a long one is not a line
		}
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		req := append(append(line, '\n'), `{"op":"list"}`+"\n"...)
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		c.(*net.TCPConn).CloseWrite()
		replies, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("reading the replies: %v", err)
		}
		lines := bytes.Split(bytes.TrimSuffix(replies, []byte("\n")), []byte("\n"))
		if len(lines) != 2 {
			t.Fatalf("%d reply lines to %q and a list request, want 2: %q", len(lines), line, replies)
		}
		var first, second Response
		if err := json.Unmarshal(lines[0], &first); err != nil {
			t.Fatalf("reply %q is not a response: %v", lines[0], err)
		}
		if err := json.Unmarshal(line, new(Request)); err != nil && (first.OK || first.Error == "") {
			t.Fatalf("malformed line %q answered %+v, want an error", line, first)
		}
		if err := json.Unmarshal(lines[1], &second); err != nil || !second.OK {
			t.Fatalf("the list request after %q was answered %q (%v)", line, lines[1], err)
		}
	})
}

// FuzzClientResponse: whatever one reply line holds, the client's round
// trip returns exactly what it decodes to or an error, never panics,
// drops a connection whose reply it could not decode, and answers the
// next call from a well-formed reply.
func FuzzClientResponse(f *testing.F) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	replies := make(chan []byte) // one per request line the server reads
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				r := bufio.NewReader(c)
				for {
					if _, err := r.ReadBytes('\n'); err != nil {
						return
					}
					if _, err := c.Write(append(append([]byte(nil), <-replies...), '\n')); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	cli, err := Dial(ln.Addr().String())
	if err != nil {
		f.Fatal(err)
	}
	cli.CallTimeout = 10 * time.Second
	f.Cleanup(func() {
		cli.Close()
		ln.Close()
	})
	for _, s := range []string{
		`{"ok":true,"job":7}`,
		`{"ok":false,"error":"server restarting","code":"restarting","job":7}`,
		`{"ok":true,"job":1,"status":{"id":1,"tenant":"a","family":"pfor","state":"done","result":"0x1"}}`,
		`{"ok":true,"jobs":[{"id":2},{"id":3}]}`,
		`{"ok":true,"tenants":[{"name":"a"}]}`,
		`{"ok":"yes"}`,
		`{"status":null}`,
		`{"ok":true}{"ok":false}`,
		`not json`,
		``,
		`null`,
	} {
		f.Add([]byte(s))
	}
	ctx := context.Background()
	req := []byte(`{"op":"status","job":1}` + "\n")
	f.Fuzz(func(t *testing.T, reply []byte) {
		reply = bytes.ReplaceAll(reply, []byte("\n"), []byte(" "))
		go func() { replies <- reply }()
		var want Response
		werr := json.Unmarshal(reply, &want)
		got, err := cli.roundTrip(ctx, req, false)
		if (err == nil) != (werr == nil) {
			t.Fatalf("reply %q: round trip error %v, decode error %v", reply, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("reply %q: got %+v, want %+v", reply, got, want)
		}
		cli.mu.Lock()
		kept := cli.conn != nil
		cli.mu.Unlock()
		if err != nil && kept {
			t.Fatalf("reply %q: the connection outlived an undecodable reply", reply)
		}
		go func() { replies <- []byte(`{"ok":true,"job":1}`) }()
		if got, err := cli.roundTrip(ctx, req, false); err != nil || !got.OK || got.Job != 1 {
			t.Fatalf("after reply %q the next call got %+v, %v", reply, got, err)
		}
	})
}
