package jobs

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
)

// Server exposes a Service over the newline-JSON protocol. Each
// connection runs a reader goroutine (so connection loss is noticed
// even while a wait blocks) and a handler goroutine answering requests
// strictly in order. Shutdown is polite: a blocked or newly-arriving
// request is answered with a typed CodeDraining / CodeRestarting error
// before the connection closes, so clients can tell "retry after
// restart" from "job rejected" — no bare connection resets.
type Server struct {
	svc        *Service
	ln         net.Listener
	onShutdown func()

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   atomic.Bool
	closing  chan struct{}
	shutOnce sync.Once
	wg       sync.WaitGroup

	// waiting counts handlers blocked inside waitJob; tests poll it to
	// sequence a shutdown against an in-flight wait without sleeps.
	waiting atomic.Int32
}

// Serve starts accepting on ln. onShutdown (may be nil) is invoked
// once, asynchronously, when a client sends OpShutdown — the daemon
// hooks its drain-and-exit sequence there.
func Serve(svc *Service, ln net.Listener, onShutdown func()) *Server {
	sv := &Server{
		svc: svc, ln: ln, onShutdown: onShutdown,
		conns:   make(map[net.Conn]struct{}),
		closing: make(chan struct{}),
	}
	sv.wg.Add(1)
	go sv.acceptLoop()
	return sv
}

// Addr returns the listen address.
func (sv *Server) Addr() net.Addr { return sv.ln.Addr() }

func (sv *Server) acceptLoop() {
	defer sv.wg.Done()
	for {
		conn, err := sv.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sv.mu.Lock()
		if sv.closed.Load() {
			sv.mu.Unlock()
			conn.Close()
			return
		}
		sv.conns[conn] = struct{}{}
		sv.mu.Unlock()
		sv.wg.Add(1)
		go sv.handleConn(conn)
	}
}

func (sv *Server) handleConn(conn net.Conn) {
	defer sv.wg.Done()

	// Reader goroutine: scans lines into a small pipeline buffer and
	// signals connection death by closing down — which a handler
	// blocked inside a wait observes, so an abandoned connection never
	// leaks a goroutine.
	lines := make(chan []byte, 16)
	down := make(chan struct{})
	go func() {
		defer close(down)
		defer close(lines)
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		for sc.Scan() {
			raw := sc.Bytes()
			if len(raw) == 0 {
				continue
			}
			line := append([]byte(nil), raw...)
			select {
			case lines <- line:
			case <-sv.closing:
				return
			}
		}
	}()

	defer func() {
		conn.Close()
		<-down // reader exits once its read fails on the closed conn
		sv.mu.Lock()
		delete(sv.conns, conn)
		sv.mu.Unlock()
	}()

	w := bufio.NewWriter(conn)
	enc := json.NewEncoder(w)
	respond := func(resp Response) bool {
		if err := enc.Encode(&resp); err != nil {
			return false
		}
		return w.Flush() == nil
	}
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				return
			}
			var req Request
			var resp Response
			var alive bool
			if err := json.Unmarshal(line, &req); err != nil {
				resp, alive = Response{Error: "bad request: " + err.Error()}, true
			} else {
				resp, alive = sv.handle(req, down)
			}
			if !alive || !respond(resp) {
				return
			}
			// Drain-in-progress: answer what was pipelined, then let
			// the deferred close reclaim the connection.
			select {
			case <-sv.closing:
				return
			default:
			}
		case <-sv.closing:
			return
		}
	}
}

// codeFor classifies shutdown-flavored errors for the wire.
func codeFor(err error) string {
	switch {
	case errors.Is(err, ErrServerRestarting):
		return CodeRestarting
	case errors.Is(err, ErrServerDraining), errors.Is(err, ErrDraining):
		return CodeDraining
	}
	return ""
}

// handle answers one request. The second return is false only when the
// connection died while the request blocked (nothing to write).
func (sv *Server) handle(req Request, down <-chan struct{}) (Response, bool) {
	switch req.Op {
	case OpSubmit:
		tok := SubmitToken{Client: req.Client, Seq: req.Seq, Ack: req.Ack}
		id, err := sv.svc.SubmitToken(req.Tenant, JobSpec{Family: req.Family, Params: req.Params}, tok)
		if err != nil {
			return Response{Error: err.Error(), Code: codeFor(err)}, true
		}
		return Response{OK: true, Job: id}, true
	case OpStatus:
		st, err := sv.svc.Status(req.Job)
		if err != nil {
			return Response{Error: err.Error()}, true
		}
		return Response{OK: true, Job: req.Job, Status: &st}, true
	case OpWait:
		return sv.waitJob(req.Job, down)
	case OpCancel:
		if err := sv.svc.Cancel(req.Job); err != nil {
			return Response{Error: err.Error(), Code: codeFor(err)}, true
		}
		return Response{OK: true, Job: req.Job}, true
	case OpList:
		return Response{OK: true, Jobs: sv.svc.List()}, true
	case OpTenants:
		return Response{OK: true, Tenants: sv.svc.Tenants()}, true
	case OpShutdown:
		sv.shutOnce.Do(func() {
			if sv.onShutdown != nil {
				go sv.onShutdown()
			}
		})
		return Response{OK: true}, true
	default:
		return Response{Error: "unknown op: " + req.Op}, true
	}
}

// waitJob blocks until the job finishes, the service suspends, the
// server closes, or the connection dies — whichever comes first. A
// suspend or close is answered with a typed code so the client knows
// whether the wait is retryable after a restart.
func (sv *Server) waitJob(id uint64, down <-chan struct{}) (Response, bool) {
	j := sv.svc.job(id)
	if j == nil {
		return Response{Error: ErrNoSuchJob.Error()}, true
	}
	done := j.done
	finished := func() (Response, bool) {
		st, err := sv.svc.Status(id)
		if err != nil {
			return Response{Error: err.Error()}, true
		}
		return Response{OK: true, Job: id, Status: &st}, true
	}
	sv.waiting.Add(1)
	defer sv.waiting.Add(-1)
	select {
	case <-done:
		return finished()
	case <-sv.svc.Suspended():
		// A job that completed concurrently with the suspend still has
		// a final status — terminal state wins.
		select {
		case <-done:
			return finished()
		default:
		}
		return Response{Error: ErrServerRestarting.Error(), Code: CodeRestarting, Job: id}, true
	case <-sv.closing:
		select {
		case <-done:
			return finished()
		default:
		}
		return Response{Error: ErrServerDraining.Error(), Code: CodeDraining, Job: id}, true
	case <-down:
		// The reader also exits when the server closes; prefer the
		// typed answer — if the connection is truly dead the write
		// just fails.
		select {
		case <-sv.closing:
			return Response{Error: ErrServerDraining.Error(), Code: CodeDraining, Job: id}, true
		default:
		}
		return Response{}, false
	}
}

// Close stops accepting and tears down open connections, after giving
// every in-flight request — including blocked waits — the chance to
// flush a typed response. It does not drain the service — callers
// drain (or Suspend) first for a graceful shutdown.
func (sv *Server) Close() {
	if sv.closed.Swap(true) {
		return
	}
	close(sv.closing)
	sv.ln.Close()
	sv.wg.Wait()
}
