package sweep

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/obs"
)

// ServerConfig wires the status server's data sources. Every field is
// optional: endpoints whose source is absent degrade gracefully instead of
// 404-ing, so one helper serves the full sweep surface in cmd/experiments
// and the slimmer single-run surface in cmd/itespsim.
type ServerConfig struct {
	// Collector feeds /progress (sweep section) and /events.
	Collector *Collector
	// Metrics feeds /metrics (Prometheus text exposition). The function
	// must be safe to call at any time from the serving goroutine — hand it
	// a registry of concurrency-safe gauges (Collector.Register), never a
	// live simulation's registry.
	Metrics func() *obs.Snapshot
	// Run feeds /progress (run section) with single-simulation progress;
	// ok=false means no observation yet.
	Run func() (obs.ProgressStat, bool)
}

// progressPayload is the /progress response body.
type progressPayload struct {
	Sweep *Progress        `json:"sweep,omitempty"`
	Run   *runProgressJSON `json:"run,omitempty"`
}

type runProgressJSON struct {
	CPUCycles uint64  `json:"cpu_cycles"`
	OpsDone   uint64  `json:"ops_done"`
	OpsTarget uint64  `json:"ops_target"`
	Pct       float64 `json:"pct"`
}

// Handler builds the status-server endpoint set:
//
//	/          tiny text index
//	/progress  JSON snapshot: counts, rates, ETA, slowest in-flight jobs
//	/metrics   Prometheus text exposition of cfg.Metrics
//	/events    live job-lifecycle stream — NDJSON by default, SSE when the
//	           Accept header asks for text/event-stream
//	/debug/pprof/...  net/http/pprof
//
// The handler is self-contained (no package-level state), so tests can
// mount it on httptest servers and several instances can coexist.
func Handler(cfg ServerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "sweep status server\n\n/progress\n/metrics\n/events\n/debug/pprof/\n")
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		var p progressPayload
		if cfg.Collector != nil {
			snap := cfg.Collector.Snapshot()
			p.Sweep = &snap
		}
		if cfg.Run != nil {
			if st, ok := cfg.Run(); ok {
				rj := runProgressJSON{CPUCycles: st.CPUCycles, OpsDone: st.OpsDone, OpsTarget: st.OpsTarget}
				if st.OpsTarget > 0 {
					rj.Pct = 100 * float64(st.OpsDone) / float64(st.OpsTarget)
				}
				p.Run = &rj
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if cfg.Metrics == nil {
			fmt.Fprintln(w, "# no metrics registry attached")
			return
		}
		_ = cfg.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Collector == nil {
			http.Error(w, "no sweep collector attached", http.StatusNotImplemented)
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
		if sse {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		// Subscribe before the header goes out: once the client sees the
		// 200, every subsequent event is guaranteed to be captured.
		events, cancel := cfg.Collector.Subscribe(0)
		defer cancel()
		w.WriteHeader(http.StatusOK)
		flusher.Flush()
		for {
			select {
			case <-r.Context().Done():
				return
			case ev := <-events:
				line, err := json.Marshal(ev)
				if err != nil {
					continue
				}
				if sse {
					_, err = fmt.Fprintf(w, "data: %s\n\n", line)
				} else {
					_, err = fmt.Fprintf(w, "%s\n", line)
				}
				if err != nil {
					return
				}
				flusher.Flush()
			}
		}
	})
	// net/http/pprof self-registers only on DefaultServeMux; mount its
	// handlers explicitly so every CLI shares one server (and one flag)
	// instead of the old copy-pasted ListenAndServe(addr, nil) goroutine.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running status server. Close releases the listener and
// terminates in-flight streams.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (e.g. "localhost:6060"; ":0" picks a free port)
// and serves the status endpoints in a background goroutine. The returned
// Server reports the bound address via Addr, so ":0" is usable in tests
// and scripts.
func Start(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sweep: status server: %w", err)
	}
	srv := &http.Server{Handler: Handler(cfg), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server, closing active connections (which unblocks any
// /events streams).
func (s *Server) Close() error { return s.srv.Close() }
