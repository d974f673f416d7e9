package hyrise

import (
	"errors"
	"net"

	"hyrise/client"
	"hyrise/internal/server"
)

// DBServer serves a Table over the length-prefixed binary
// protocol (see internal/server for the protocol description and
// cmd/hyrised for the standalone daemon).  Obtain one with Serve; stop it
// with Shutdown (graceful, drains in-flight requests) or Close.
type DBServer = server.Server

// ServerOptions configures Serve.
type ServerOptions = server.Options

// Serve starts serving t on l in a background goroutine and returns the
// running server.  Requests execute directly against t — the server adds
// no locking of its own — so the process may keep using t (schedulers,
// local reads) while remote clients connect.  Stop with
// DBServer.Shutdown, which drains in-flight requests, or DBServer.Close.
// If the accept loop dies on a listener error, the failure is reported
// through ServerOptions.Logger (run DBServer.Serve directly, as
// cmd/hyrised does, to handle it programmatically).  The returned
// server's Registry and ObsHandler expose its metrics; see the package
// documentation's Observability section.  The error is always nil; the
// result list stays for the separate benchmark module, which destructures
// it.
func Serve(l net.Listener, t *Table, opts ServerOptions) (*DBServer, error) {
	srv := server.New(t, opts)
	go func() {
		if err := srv.Serve(l); err != nil && !errors.Is(err, server.ErrServerClosed) && opts.Logger != nil {
			opts.Logger.Error("hyrise: server stopped", "addr", l.Addr().String(), "err", err)
		}
	}()
	return srv, nil
}

// Client is the pooled network client from package hyrise/client; Dial
// is re-exported here so the common case needs one import.  The client's
// typed errors (client.ErrRowInvalid, client.ErrBadSnapshot, ...) live
// in that package.
type Client = client.Client

// Dial connects to a hyrise server (hyrise.Serve or cmd/hyrised) with
// default pooling and returns the client.  Use client.DialOptions for
// explicit pool sizing.
func Dial(addr string) (*Client, error) { return client.Dial(addr) }
