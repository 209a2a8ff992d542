package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"github.com/faqdb/faq/internal/server"
)

// daemon is faqd hosted inside the benchmark process: server.New behind an
// http.Server on a loopback listener, with a temporary dataset directory.
// No child process is started, so nothing can outlive stop.
type daemon struct {
	srv     *server.Server
	http    *http.Server
	ln      net.Listener
	dir     string
	served  chan error
	tr      *http.Transport
	rt      *countingTransport
	client  *server.Client
	stopped bool
}

// startDaemon boots faqd with its data directory under base and a client
// whose transport keeps at most conns connections open.
func startDaemon(base string, conns int) (*daemon, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "faqd-data-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		ln:     ln,
		dir:    dir,
		served: make(chan error, 1),
		tr: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
	d.rt = &countingTransport{base: d.tr}
	d.client = &server.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: d.rt}}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the HTTP server, closes the engine and the store, and removes
// the data directory.  It is the one shutdown path, for a normal end and for
// SIGINT/SIGTERM alike, and it returns only once the serve loop has exited.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errShut := d.http.Shutdown(ctx)
	errServe := <-d.served
	if errors.Is(errServe, http.ErrServerClosed) {
		errServe = nil
	}
	d.tr.CloseIdleConnections()
	d.srv.Close()
	errRm := os.RemoveAll(d.dir)
	return errors.Join(errShut, errServe, errRm)
}

// countingTransport counts request and response body bytes and, when trace
// is set, asks the daemon for its span tree on every request.
type countingTransport struct {
	base     http.RoundTripper
	trace    atomic.Bool
	reqBytes atomic.Int64
	resBytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.trace.Load() {
		req = req.Clone(req.Context())
		req.Header.Set("X-FAQ-Trace", "1")
	}
	if req.ContentLength > 0 {
		t.reqBytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.resBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// statsz reads the daemon's counters.
func (d *daemon) statsz(ctx context.Context) (*server.StatszResponse, error) {
	st, err := d.client.Statsz(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading /statsz: %w", err)
	}
	return st, nil
}
