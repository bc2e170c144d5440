package aserver

import (
	"encoding/json"
	"net"
	"net/http"
)

// statsHandler serves snapshot as indented JSON at /stats, the one
// export of the server's and the router's metrics (what astat consumes).
func statsHandler(snapshot func() any) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snapshot()) //nolint:errcheck — client went away mid-scrape
	})
	return mux
}

// listenStats serves h on addr in the background. The returned listener
// carries the bound address; closing it stops the endpoint. The HTTP
// server dies with the listener, so Close does not need to know about it.
func listenStats(addr string, h http.Handler) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		srv := &http.Server{Handler: h}
		srv.Serve(l) //nolint:errcheck — ends when the listener closes
	}()
	return l, nil
}

// ListenStats serves the stats endpoint on addr in the background (the
// afd -stats flag). A scrape takes each engine lock briefly to copy the
// device counters, so polling it during playback is safe.
func (s *Server) ListenStats(addr string) (net.Listener, error) {
	return listenStats(addr, statsHandler(func() any { return s.Snapshot() }))
}
