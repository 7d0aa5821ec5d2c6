package kinetic

import (
	"bufio"
	"crypto/tls"
	"errors"
	"io"
	"log"
	"net"
	"sync"

	"repro/internal/kinetic/wire"
)

// Server exposes a Drive over a net.Listener, speaking the framed wire
// protocol. When a TLS config is supplied, the channel terminates
// inside the drive controller as on real Kinetic hardware, presenting
// the drive's unique X.509 identity.
type Server struct {
	drive *Drive
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve wraps ln (optionally in TLS) and serves drive until Close.
// It returns immediately; the accept loop runs in the background.
func Serve(drive *Drive, ln net.Listener, tlsCfg *tls.Config) *Server {
	if tlsCfg != nil {
		ln = tls.NewListener(ln, tlsCfg)
	}
	s := &Server{drive: drive, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Drive returns the served drive.
func (s *Server) Drive() *Drive { return s.drive }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	// One encoder per connection, under the write lock: replies are
	// marshalled into its reused buffer and a value goes out from the
	// reply's pooled copy.
	enc := wire.NewEncoder()
	var wmu sync.Mutex
	for {
		// The request is read into a pooled message, taken once its size
		// is known so that an idle connection pins no frame.
		var req *wire.Message // the handler goroutine's own
		n, err := wire.PeekFrameSize(r)
		if err == nil {
			req = wire.TakeMessage(n)
			err = wire.ReadFrame(r, req)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
				log.Printf("kinetic[%s]: read: %v", s.drive.Name(), err)
			}
			return
		}
		// Each request is handled in its own goroutine so slow media
		// operations don't head-of-line block the connection; the
		// client correlates responses by sequence number. This mirrors
		// the real drive's internal thread pool.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			out := reply{pooled: true}
			// The request goes back to the pool once its reply is out of
			// it: every handler copies what it keeps (the store copies
			// records into its arena, the account table its keys and
			// PIN), but the reply may alias the request's key.
			done := func() {
				out.release()
				wire.ReleaseMessage(req)
			}
			resp := s.drive.handle(req, &out)
			if resp == nil {
				// Blackholed by fault injection: the drive has vanished.
				// Kill the connection so the client sees a transport
				// error rather than a hung request.
				done()
				conn.Close()
				return
			}
			wmu.Lock()
			defer wmu.Unlock()
			err := enc.WriteUnsigned(w, resp)
			// The reply's bytes are on the connection or copied into w:
			// its buffers and the request go back before the flush lets
			// the caller see the reply, so the caller's next request
			// finds them.
			done()
			if err == nil {
				err = w.Flush()
			}
			if err != nil {
				// A reply that cannot be sent (an over-size range
				// listing, a broken pipe) must not leave its caller
				// waiting on a connection that looks alive, and the
				// buffered writer refuses everything after an error
				// anyway: drop the connection, which fails every call
				// pending on it.
				conn.Close()
			}
		}()
	}
}

// Close stops accepting, closes all connections and waits for
// in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
