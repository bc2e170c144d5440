package aserver

import (
	"encoding/json"
	"net"
	"net/http"

	"audiofile/internal/metrics"
)

// statsHandler builds the stats endpoints the server and the router both
// expose:
//
//	/stats       the structured snapshot as JSON (what astat consumes)
//	/debug/vars  the flat expvar-compatible view of the registry
func statsHandler(snapshot func() any, reg *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snapshot()) //nolint:errcheck — client went away mid-scrape
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteExpvar(w) //nolint:errcheck
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

// StatsHandler returns an http.Handler exposing the server's metrics,
// /stats serving its Snapshot. The handler only reads — a scrape takes
// each engine lock briefly to copy the device counters, so polling it
// during playback is safe.
func (s *Server) StatsHandler() http.Handler {
	return statsHandler(func() any { return s.Snapshot() }, s.sm.reg)
}

// ListenStats serves the stats endpoints on addr in the background (the
// afd -stats flag).
func (s *Server) ListenStats(addr string) (net.Listener, error) {
	return listenStats(addr, s.StatsHandler())
}
