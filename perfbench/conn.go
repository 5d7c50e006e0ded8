package main

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"mineassess/perfbench/internal/span"
	"mineassess/pkg/client"
)

// requestTimeout bounds one SDK call, well inside a run's time budget.
const requestTimeout = 20 * time.Second

// conn is one keep-alive HTTP connection with the SDK on top. Its calls run
// one at a time, from one goroutine.
type conn struct {
	sdk *client.Client
	tr  *http.Transport
	// Set only in traced runs: every SDK call becomes an "sdk.<route>" span
	// and its request carries a fresh X-Request-ID.
	rec   *span.Recorder
	ids   *atomic.Uint64
	reqID string // ID of the call in flight, read by the round tripper
}

func newConn(base string, rec *span.Recorder, ids *atomic.Uint64) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &conn{tr: tr, rec: rec, ids: ids}
	c.sdk = client.New(base, client.WithHTTPClient(&http.Client{Transport: tripper{c}, Timeout: requestTimeout}))
	return c
}

// call runs one SDK call under a route name.
func (c *conn) call(route string, f func(*client.Client) error) error {
	if c.rec == nil {
		return f(c.sdk)
	}
	c.reqID = fmt.Sprintf("pb-%d", c.ids.Add(1))
	start := time.Now()
	err := f(c.sdk)
	c.rec.Add("sdk."+route, c.reqID, start)
	c.reqID = ""
	return err
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// tripper stamps the call in flight's request ID, if any, on the outgoing
// request (the server's RequestID middleware adopts it), and reads every
// response to its end before closing it.
type tripper struct{ c *conn }

func (t tripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.c.reqID != "" {
		r = r.Clone(r.Context())
		r.Header.Set("X-Request-ID", t.c.reqID)
	}
	resp, err := t.c.tr.RoundTrip(r)
	if err == nil {
		resp.Body = drainOnClose{resp.Body}
	}
	return resp, err
}

// drainOnClose reads a body to its end before closing it. The SDK stops
// reading once it has decoded the JSON value, which can leave a chunked
// body's terminator unread; closing there would drop the keep-alive
// connection. The server writes the terminator only after its handler has
// returned and the request has been counted, so reading it also makes a
// call complete only once the server's /metrics include it.
type drainOnClose struct{ io.ReadCloser }

func (d drainOnClose) Close() error {
	_, _ = io.Copy(io.Discard, d.ReadCloser) // a failed drain only costs the connection
	return d.ReadCloser.Close()
}
