package server

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graphio"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("POST /v1/graphs", s.handleCreateGraph)
	s.mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	s.mux.HandleFunc("GET /v1/graphs/{id}", s.handleGraphInfo)
	s.mux.HandleFunc("DELETE /v1/graphs/{id}", s.handleDeleteGraph)
	s.mux.HandleFunc("POST /v1/graphs/{id}/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/graphs/{id}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/graphs/{id}/addedge", s.handleEdge(true))
	s.mux.HandleFunc("POST /v1/graphs/{id}/deledge", s.handleEdge(false))
	s.mux.HandleFunc("POST /v1/graphs/{id}/compact", s.handleCompact)
	s.mux.HandleFunc("POST /v1/graphs/{id}/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/graphs/{id}/deltas", s.handleDeltasGet)
	s.mux.HandleFunc("POST /v1/graphs/{id}/deltas", s.handleDeltasApply)
	s.mux.HandleFunc("GET /v1/graphs/{id}/export", s.handleExport)
	s.mux.HandleFunc("POST /v1/graphs/install", s.handleInstall)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	// The standard pprof handlers; /debug/pprof/ itself serves the index
	// and the named profiles (heap, goroutine, block, ...).
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// bodyPool recycles response buffers: a result body is one id per vertex,
// tens of KB on a 10k-vertex graph. A buffer that grew past maxPooledBody
// is left to the collector, so one huge response does not pin its memory.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// writeJSON encodes v into a pooled buffer, then answers status with
// Content-Length and the body in one Write. A value that cannot be encoded
// (a NaN metric) is answered 500 with the error envelope instead, never a
// 200 with an empty body. *Result goes through appendResult, everything
// else through encoding/json; both end the body with a newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	p := bodyPool.Get().(*[]byte)
	body, err := appendJSON((*p)[:0], v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = appendJSON(body[:0], errorBody{Error: "encoding response: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
	putBody(p, body)
}

// putBody returns a response buffer to the pool unless it grew too large.
func putBody(p *[]byte, body []byte) {
	if cap(body) <= maxPooledBody {
		*p = body[:0]
		bodyPool.Put(p)
	}
}

// appendJSON appends what json.NewEncoder(w).Encode(v) writes.
func appendJSON(buf []byte, v any) ([]byte, error) {
	if r, ok := v.(*Result); ok {
		return appendResult(buf, r)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return buf, err
	}
	return append(append(buf, b...), '\n'), nil
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// statusClientClosed mirrors the de-facto 499 "client closed request"
// convention for requests whose own context was cancelled (the client
// disconnected; nobody reads the response, but the access path still wants
// a terminal status).
const statusClientClosed = 499

// runStatus classifies an error from the decode → resolve → engine-run
// pipeline into an HTTP status: malformed requests are 400, expired
// deadlines 504, disconnected clients 499, compute panics 500, and every
// other runner-stage failure (semantically invalid parameters a decoder
// cannot see, e.g. problem=nope) 422.
func runStatus(err error) int {
	switch {
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosed
	case strings.Contains(err.Error(), "panicked"):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// handleHealthz reports three-state readiness: "replaying" (503) while the
// process is still recovering its stores, "draining" (503) once shutdown
// has begun, "ok" (200) in between. Draining wins over replaying so a
// process killed mid-recovery still reports the terminal state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	inflight, draining := s.gate.stats()
	status := http.StatusOK
	state := "ok"
	switch {
	case draining:
		status = http.StatusServiceUnavailable
		state = "draining"
	case s.replaying.Load():
		status = http.StatusServiceUnavailable
		state = "replaying"
	}
	writeJSON(w, status, map[string]any{"status": state, "inflight": inflight})
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	specs := algo.All()
	out := make([]AlgorithmInfo, 0, len(specs))
	for _, sp := range specs {
		info := AlgorithmInfo{
			Name:       sp.Name,
			Aliases:    sp.Aliases,
			Summary:    sp.Summary,
			Kind:       sp.Caps.Kind.String(),
			Seeded:     sp.Caps.Seeded,
			Weighted:   sp.Caps.Weighted,
			Workers:    sp.Caps.Workers,
			Repairable: sp.Caps.Repairable,
		}
		for _, d := range sp.Defs {
			info.Params = append(info.Params, AlgorithmParam{
				Key: d.Key, Default: d.Default, Doc: d.Doc, NoCache: d.NoCache,
			})
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCreateGraph creates a served graph: a JSON body generates a
// topology server-side (gen.Family); any other content type is raw graph
// bytes in a graphio format named by ?format= (el|edges|dimacs|col|metis|
// graph, with an optional .gz suffix; Content-Encoding: gzip also works).
func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var gr GenerateRequest
		if err := decodeJSON(r.Body, &gr); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if max := s.opts.maxGenerateVertices(); gr.N > max {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("n=%d exceeds the generation bound %d", gr.N, max))
			return
		}
		built, err := gen.Family(gr.Family, gr.N, gr.Seed)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		s.respondCreated(w, built)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		writeError(w, http.StatusBadRequest,
			"uploads need ?format=el|edges|dimacs|col|metis|graph (optionally with a .gz suffix); JSON bodies generate instead")
		return
	}
	f, gzipped, err := graphio.FormatForPath("upload." + format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var src io.Reader = r.Body
	if gzipped || r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(src)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("gzip: %v", err))
			return
		}
		defer zr.Close()
		// MaxBytesReader only bounds the compressed bytes; bound the
		// decompressed stream too, or a small gzip bomb expands unchecked.
		src = &boundedReader{r: zr, remaining: s.opts.maxBodyBytes() + 1, limit: s.opts.maxBodyBytes()}
	}
	built, err := graphio.Read(src, f)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.respondCreated(w, built)
}

// boundedReader fails the stream once more than limit bytes have been
// delivered (remaining starts at limit+1, so a stream of exactly limit
// bytes still reaches its EOF normally). The resulting parse error surfaces
// as a 400 instead of an unbounded allocation.
type boundedReader struct {
	r         io.Reader
	remaining int64
	limit     int64
}

func (b *boundedReader) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("decompressed body exceeds the %d-byte limit", b.limit)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= int64(n)
	return n, err
}

func (s *Server) respondCreated(w http.ResponseWriter, g *graph.Graph) {
	if g.N() == 0 {
		writeError(w, http.StatusBadRequest, "empty graph")
		return
	}
	id, _ := s.AddGraph(g)
	sg, _ := s.graphByID(id)
	writeJSON(w, http.StatusCreated, graphInfo(sg))
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	list := s.graphList()
	out := make([]GraphInfo, 0, len(list))
	for _, sg := range list {
		out = append(out, graphInfo(sg))
	}
	writeJSON(w, http.StatusOK, out)
}

// graphOr404 resolves {id} or writes the 404.
func (s *Server) graphOr404(w http.ResponseWriter, r *http.Request) (*servedGraph, bool) {
	id := r.PathValue("id")
	sg, ok := s.graphByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no graph %q", id))
	}
	return sg, ok
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	if sg, ok := s.graphOr404(w, r); ok {
		writeJSON(w, http.StatusOK, graphInfo(sg))
	}
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.removeGraph(id) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no graph %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// requestCtx derives the compute context: the request's own context (so a
// client disconnect cancels the computation) bounded by the effective
// timeout.
func requestCtx(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return r.Context(), func() {}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	sg, ok := s.graphOr404(w, r)
	if !ok {
		return
	}
	var rq RunRequest
	if err := decodeJSON(r.Body, &rq); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, params, err := rq.resolve()
	if err != nil {
		writeError(w, runStatus(err), err.Error())
		return
	}
	ctx, cancel := requestCtx(r, rq.timeout(s.opts.DefaultTimeout))
	defer cancel()
	res, err := s.e.Run(ctx, sg.h, spec.Name, params)
	if err != nil {
		writeError(w, runStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, WireResult(res))
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sg, ok := s.graphOr404(w, r)
	if !ok {
		return
	}
	var qr QueryRequest
	if err := decodeJSON(r.Body, &qr); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(qr.Vertices) == 0 {
		writeError(w, http.StatusBadRequest, "query wants at least one vertex")
		return
	}
	ctx, cancel := requestCtx(r, s.opts.DefaultTimeout)
	defer cancel()
	var resp QueryResponse
	var err error
	switch qr.Op {
	case "cluster":
		resp.Clusters, resp.Snapshot, err = s.e.ClusterOf(ctx, sg.h, qr.ClusterParams(), qr.Vertices)
	case "ball":
		radius := qr.Radius
		if radius == 0 {
			radius = 2
		}
		if radius < 0 {
			writeError(w, http.StatusBadRequest, "negative radius")
			return
		}
		resp.Balls, resp.Snapshot, err = s.e.Balls(ctx, sg.h, qr.Vertices, radius, 0)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown query op %q (want cluster or ball)", qr.Op))
		return
	}
	if err != nil {
		writeError(w, runStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEdge serves addedge (add=true) and deledge (add=false).
func (s *Server) handleEdge(add bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sg, ok := s.graphOr404(w, r)
		if !ok {
			return
		}
		var mr MutateRequest
		if err := decodeJSON(r.Body, &mr); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		n := sg.st.N()
		if mr.U < 0 || mr.V < 0 || mr.U >= n || mr.V >= n {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("endpoint of {%d, %d} out of range [0, %d)", mr.U, mr.V, n))
			return
		}
		if mr.U == mr.V {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("self-loop {%d, %d} rejected", mr.U, mr.V))
			return
		}
		var applied bool
		if add {
			applied = sg.st.AddEdge(mr.U, mr.V)
		} else {
			applied = sg.st.DeleteEdge(mr.U, mr.V)
		}
		if !applied {
			// Distinguish "no-op" (still 200) from "the WAL refused the
			// write": a mutation that cannot be made durable was NOT applied
			// and must not be acknowledged.
			if werr := sg.st.Err(); werr != nil {
				writeError(w, http.StatusInternalServerError,
					fmt.Sprintf("mutation rejected: %v", werr))
				return
			}
		}
		writeJSON(w, http.StatusOK, mutateResponse(applied, sg.st.Stats()))
	}
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	sg, ok := s.graphOr404(w, r)
	if !ok {
		return
	}
	if _, err := sg.st.Compact(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse(true, sg.st.Stats()))
}

// batchLineLimit bounds one NDJSON request line.
const batchLineLimit = 1 << 20

// handleBatch streams NDJSON: each input line is a RunRequest, each output
// line a BatchLine, flushed as soon as its run finishes, so a slow client
// sees results trickle in instead of buffering the whole batch. Request
// errors, and results that cannot be encoded (status 500), are reported per
// line and do not abort the stream; a disconnected client does (its context
// cancels the in-flight run).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sg, ok := s.graphOr404(w, r)
	if !ok {
		return
	}
	// Results stream back while request lines are still arriving. Without
	// full duplex, the first flush makes net/http discard and close the
	// unread rest of the request body.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	p := bodyPool.Get().(*[]byte)
	buf := *p
	defer func() { putBody(p, buf) }()
	emit := func(line BatchLine) {
		var err error
		if buf, err = appendBatchLine(buf[:0], &line); err != nil {
			buf, _ = appendBatchLine(buf[:0], &BatchLine{
				Index: line.Index, Error: "encoding result: " + err.Error(), Status: http.StatusInternalServerError,
			})
		}
		_, _ = w.Write(buf)
		if flusher != nil {
			flusher.Flush()
		}
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 4096), batchLineLimit)
	index := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		index++
		if r.Context().Err() != nil {
			return
		}
		var rq RunRequest
		err := decodeJSON(strings.NewReader(line), &rq)
		var spec *algo.Spec
		var params algo.Params
		if err == nil {
			spec, params, err = rq.resolve()
		}
		if err != nil {
			emit(BatchLine{Index: index, Error: err.Error(), Status: runStatus(err)})
			continue
		}
		ctx, cancel := requestCtx(r, rq.timeout(s.opts.DefaultTimeout))
		res, err := s.e.Run(ctx, sg.h, spec.Name, params)
		cancel()
		if err != nil {
			if r.Context().Err() != nil {
				return // client gone; nobody is reading
			}
			emit(BatchLine{Index: index, Error: err.Error(), Status: runStatus(err)})
			continue
		}
		emit(BatchLine{Index: index, Result: WireResult(res)})
	}
	if err := sc.Err(); err != nil && r.Context().Err() == nil {
		emit(BatchLine{Index: index + 1, Error: fmt.Sprintf("reading batch stream: %v", err), Status: http.StatusBadRequest})
	}
}

// handleMetrics lives in obshttp.go with the rest of the serving-layer
// observability plumbing.
