package measured

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"safemeasure/internal/campaign"
	"safemeasure/internal/telemetry"
)

// tinyBufListener shrinks every accepted connection's kernel send buffer so
// a reader that stops draining exerts backpressure after a few KB instead of
// a few hundred.
type tinyBufListener struct {
	net.Listener
}

func (l tinyBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(4096)
		}
	}
	return c, err
}

// paddedExec returns records with ~2KB of evidence so the response stream
// overruns the shrunken socket buffers quickly.
func paddedExec(spec campaign.RunSpec, claim func() bool) campaign.RunRecord {
	claim()
	rec := richRec(spec)
	pad := strings.Repeat("x", 1024)
	rec.Evidence = []string{pad, pad}
	return rec
}

// TestSlowClientDroppedWithoutBlockingPool stalls one NDJSON reader
// mid-stream and asserts the service's slow-client contract: the stalled
// stream is disconnected once a write blocks past the deadline (counted in
// measured_slow_client_drops_total), while a concurrent well-behaved client
// and the worker pool itself never notice.
func TestSlowClientDroppedWithoutBlockingPool(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{
		Workers:           2,
		QueueMax:          8192,
		MaxRunsPerRequest: 4096,
		CacheMax:          8192,
		WriteTimeout:      250 * time.Millisecond,
		StreamBuf:         8,
		Metrics:           reg,
		Execute:           paddedExec,
	})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewUnstartedServer(svc.Handler())
	srv.Listener = tinyBufListener{srv.Listener}
	srv.Start()
	defer srv.Close()

	// The sloth: asks for ~6MB of records over a connection with a few KB of
	// combined socket buffer, reads one chunk, then stops reading entirely.
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	fmt.Fprintf(conn, "GET /measure?technique=overt-dns&scenario=dns-poison&trials=3000&seed=11&client=sloth HTTP/1.1\r\nHost: measured\r\n\r\n")
	buf := make([]byte, 2048)
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("sloth's first read: %v", err)
	}
	// From here on the sloth never reads again.

	// A well-behaved client on the same service must stream to completion
	// while the sloth's stream is wedged — round-robin scheduling interleaves
	// its runs with the sloth's queued thousands.
	healthy := make(chan error, 1)
	go func() {
		code, body := httpGet(t, srv, "/measure?technique=overt-dns&scenario=dns-poison&trials=2&seed=77&client=healthy")
		if code != http.StatusOK {
			healthy <- fmt.Errorf("healthy request = %d (%s)", code, strings.TrimSpace(body))
			return
		}
		healthy <- nil
	}()
	select {
	case err := <-healthy:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("healthy client starved behind a stalled reader")
	}

	// The sloth is dropped once a write blocks past the deadline.
	drops := reg.Counter("measured_slow_client_drops_total")
	deadline := time.Now().Add(15 * time.Second)
	for drops.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled client never dropped (measured_slow_client_drops_total still 0)")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And the pool is still alive after the drop: a fresh cell executes.
	code, body := httpGet(t, srv, "/measure?technique=overt-dns&scenario=dns-poison&trials=1&seed=88&client=after")
	if code != http.StatusOK {
		t.Fatalf("request after slow-client drop = %d (%s)", code, strings.TrimSpace(body))
	}
}
