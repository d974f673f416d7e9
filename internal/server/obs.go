package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// ObsHandler returns the server's observability HTTP surface, mounted by
// hyrised -metrics-addr (and embeddable by anyone running the server
// in-process):
//
//	/metrics          Prometheus text exposition of the metric registry
//	/healthz          liveness + role-aware readiness (see below)
//	/debug/pprof/*    the standard runtime profiles
//
// The profiles are mounted on this private mux explicitly rather than
// relying on net/http/pprof's DefaultServeMux registration, so importing
// this package never pollutes a process-global mux.
//
// /healthz semantics: a primary is ready unless it is draining.  A
// follower is ready once it has received a primary heartbeat — its store
// is bootstrapped and its lag is known (on an empty primary the applied
// epoch can legitimately still be zero) — and until its applier stops
// for good, which answers 503 with the replica's error.  The optional
// query parameter min_epoch=N
// tightens readiness to "applied epoch >= N", which lets a topology
// check wait until a follower has provably converged past a known write
// instead of sleeping.  Ready answers 200 with a short text body
// (role, epochs, lag); not-ready answers 503 with the reason.
func (s *Server) ObsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.mx.reg.Handler())
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var minEpoch uint64
	if v := r.URL.Query().Get("min_epoch"); v != "" {
		e, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad min_epoch: "+err.Error(), http.StatusBadRequest)
			return
		}
		minEpoch = e
	}
	if rep := s.opts.Replica; rep != nil {
		applied, primary := rep.AppliedEpoch(), rep.PrimaryEpoch()
		var lag uint64
		if primary > applied {
			lag = primary - applied
		}
		switch err := rep.Err(); {
		case err != nil:
			http.Error(w, "follower stopped: "+err.Error(), http.StatusServiceUnavailable)
		case primary == 0:
			http.Error(w, "follower has not seen a primary heartbeat yet", http.StatusServiceUnavailable)
		case applied < minEpoch:
			http.Error(w, fmt.Sprintf("follower applied epoch %d < min_epoch %d", applied, minEpoch),
				http.StatusServiceUnavailable)
		default:
			fmt.Fprintf(w, "ok role=follower applied=%d primary=%d lag=%d\n", applied, primary, lag)
		}
		return
	}
	now := s.st.Clock().Now()
	if now < minEpoch {
		http.Error(w, fmt.Sprintf("epoch %d < min_epoch %d", now, minEpoch), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintf(w, "ok role=primary epoch=%d\n", now)
}
