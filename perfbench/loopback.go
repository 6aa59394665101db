package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
)

// loopback is an HTTP server on a loopback port, owned by the benchmark.
type loopback struct {
	url  string // http://127.0.0.1:port
	srv  *http.Server
	done chan struct{}
	// transports dial this server; their idle connections close with it.
	transports []*http.Transport
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("perfbench: serve %s: %v\n", l.url, err)
		}
	}()
	return l, nil
}

// close stops the server, waits for its serve loop to exit, and drops the
// idle client connections to it.
func (l *loopback) close() {
	l.srv.Close()
	<-l.done
	for _, tp := range l.transports {
		tp.CloseIdleConnections()
	}
}
