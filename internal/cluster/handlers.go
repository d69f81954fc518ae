package cluster

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graphio"
	"repro/internal/server"
)

func (r *Router) routes() {
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	r.mux.HandleFunc("GET /v1/algorithms", r.handleAlgorithms)
	r.mux.HandleFunc("POST /v1/graphs", r.handleCreate)
	r.mux.HandleFunc("GET /v1/graphs", r.handleList)
	r.mux.HandleFunc("GET /v1/graphs/{id}", r.handleInfo)
	r.mux.HandleFunc("DELETE /v1/graphs/{id}", r.handleDelete)
	r.mux.HandleFunc("POST /v1/graphs/{id}/run", r.handleRead("/run"))
	r.mux.HandleFunc("POST /v1/graphs/{id}/query", r.handleRead("/query"))
	r.mux.HandleFunc("POST /v1/graphs/{id}/batch", r.handleBatch)
	r.mux.HandleFunc("POST /v1/graphs/{id}/addedge", r.handleMutate(true))
	r.mux.HandleFunc("POST /v1/graphs/{id}/deledge", r.handleMutate(false))
	r.mux.HandleFunc("POST /v1/graphs/{id}/compact", r.handleCompact)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func (r *Router) httpClient() *http.Client {
	if r.opts.HTTPClient != nil {
		return r.opts.HTTPClient
	}
	return http.DefaultClient
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	up := 0
	for _, n := range r.nodes {
		if n.isUp() {
			up++
		}
	}
	status := http.StatusOK
	state := "ok"
	if up == 0 {
		status = http.StatusServiceUnavailable
		state = "no backends"
	}
	writeJSON(w, status, map[string]any{"status": state, "nodes": len(r.nodes), "up": up})
}

// handleAlgorithms proxies the registry catalog from any healthy node (the
// catalog is identical everywhere — it is compiled in).
func (r *Router) handleAlgorithms(w http.ResponseWriter, req *http.Request) {
	for _, n := range r.nodes {
		if !n.usable(r.opts.probation()) {
			continue
		}
		n.mu.Lock()
		base := n.base
		n.mu.Unlock()
		preq, err := http.NewRequestWithContext(req.Context(), http.MethodGet, base+"/v1/algorithms", nil)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp, err := r.httpClient().Do(preq)
		if err != nil {
			n.markDown()
			continue
		}
		n.markUp()
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		return
	}
	r.unavailable(w, "no backend available")
}

// maxGenerateVertices mirrors the node-side default bound.
const maxGenerateVertices = 2_000_000

// handleCreate builds the graph once on the router (JSON body = generate,
// raw body = upload in a graphio format), takes its canonical fingerprint
// as the routing key, places the member set by rendezvous hashing, and
// installs the same checkpoint bytes on every member — so all replicas
// start from a bit-identical store positioned at epoch 0.
func (r *Router) handleCreate(w http.ResponseWriter, req *http.Request) {
	body := http.MaxBytesReader(w, req.Body, r.opts.maxBodyBytes())
	var g *graph.Graph
	if strings.HasPrefix(req.Header.Get("Content-Type"), "application/json") {
		var gr server.GenerateRequest
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&gr); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if gr.N > maxGenerateVertices {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("n=%d exceeds the generation bound %d", gr.N, maxGenerateVertices))
			return
		}
		built, err := gen.Family(gr.Family, gr.N, gr.Seed)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		g = built
	} else {
		format := req.URL.Query().Get("format")
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
		var src io.Reader = body
		if gzipped || req.Header.Get("Content-Encoding") == "gzip" {
			zr, err := gzip.NewReader(src)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("gzip: %v", err))
				return
			}
			defer zr.Close()
			src = io.LimitReader(zr, r.opts.maxBodyBytes()+1)
		}
		built, err := graphio.Read(src, f)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		g = built
	}
	if g.N() == 0 {
		writeError(w, http.StatusBadRequest, "empty graph")
		return
	}

	fp := graphio.FingerprintOf(g)
	members := r.placeMembers(fp)
	if len(members) == 0 {
		r.unavailable(w, "no backend available")
		return
	}
	var ckpt bytes.Buffer
	if err := graphio.WriteCheckpoint(&ckpt, g, 0); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	rg := &routedGraph{fp: fp, n: g.N(), rep: make(map[int]*replicaState)}
	var ownerInfo *server.GraphInfo
	for _, i := range members {
		info, err := r.nodes[i].client().Install(req.Context(), fp.String(), ckpt.Bytes())
		if err != nil {
			if isTransport(err) {
				r.nodes[i].markDown()
			}
			// A member that cannot take the install now is left out; the
			// graph still serves from the members that could.
			continue
		}
		r.nodes[i].markUp()
		rg.mem = append(rg.mem, i)
		rg.rep[i] = &replicaState{remoteID: info.ID, epoch: 0, gen: r.nodes[i].generation(), ok: true}
		if ownerInfo == nil {
			ownerInfo = info
		}
	}
	if ownerInfo == nil {
		r.unavailable(w, "no backend accepted the graph")
		return
	}
	r.mu.Lock()
	r.seq++
	rg.id = fmt.Sprintf("g%d", r.seq)
	r.graphs[rg.id] = rg
	r.mu.Unlock()
	out := *ownerInfo
	out.ID = rg.id
	writeJSON(w, http.StatusCreated, out)
}

func (r *Router) graphOr404(w http.ResponseWriter, req *http.Request) (*routedGraph, bool) {
	id := req.PathValue("id")
	rg, ok := r.graphByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no graph %q", id))
	}
	return rg, ok
}

// memberInfo fetches the graph's info from the first answering in-sync
// member, with the router-visible id substituted in.
func (r *Router) memberInfo(ctx context.Context, rg *routedGraph) (*server.GraphInfo, error) {
	cands := r.readCandidates(rg)
	if len(cands) == 0 {
		return nil, fmt.Errorf("no in-sync replica available")
	}
	var lastErr error
	for _, i := range cands {
		rg.mu.Lock()
		remoteID := rg.rep[i].remoteID
		rg.mu.Unlock()
		info, err := r.nodes[i].client().GraphInfo(ctx, remoteID)
		if err == nil {
			r.nodes[i].markUp()
			info.ID = rg.id
			return info, nil
		}
		lastErr = err
		if isTransport(err) {
			r.nodes[i].markDown()
			r.m.fallbacks.Add(1)
			continue
		}
		return nil, err
	}
	return nil, lastErr
}

func (r *Router) handleInfo(w http.ResponseWriter, req *http.Request) {
	rg, ok := r.graphOr404(w, req)
	if !ok {
		return
	}
	info, err := r.memberInfo(req.Context(), rg)
	if err != nil {
		relayError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	out := make([]server.GraphInfo, 0)
	for _, rg := range r.graphList() {
		info, err := r.memberInfo(req.Context(), rg)
		if err != nil {
			// A temporarily unreadable graph still exists; report its
			// routing identity rather than hiding it.
			rg.mu.Lock()
			out = append(out, server.GraphInfo{ID: rg.id, N: rg.n, Fingerprint: rg.fp.String()})
			rg.mu.Unlock()
			continue
		}
		out = append(out, *info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (r *Router) handleDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	rg, ok := r.graphByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no graph %q", id))
		return
	}
	rg.mu.Lock()
	for _, i := range rg.mem {
		st := rg.rep[i]
		if st.remoteID == "" || st.gen != r.nodes[i].generation() {
			continue
		}
		dctx, cancel := context.WithTimeout(req.Context(), 2*time.Second)
		_ = r.nodes[i].client().DeleteGraph(dctx, st.remoteID)
		cancel()
	}
	rg.mu.Unlock()
	r.mu.Lock()
	delete(r.graphs, id)
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// relayError maps a backend error onto the router's response: APIErrors
// pass through with their status, transport failures become 502.
func relayError(w http.ResponseWriter, err error) {
	var ae *server.APIError
	if errors.As(err, &ae) {
		writeError(w, ae.Status, ae.Message)
		return
	}
	writeError(w, http.StatusBadGateway, err.Error())
}

// handleRead serves run and query: the request body is buffered once and
// raced across the in-sync members with hedging (see hedge). Buffering —
// not streaming — is what makes the replay safe.
func (r *Router) handleRead(tail string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		rg, ok := r.graphOr404(w, req)
		if !ok {
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.opts.maxBodyBytes()))
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		cands := r.readCandidates(rg)
		if len(cands) == 0 {
			r.unavailable(w, "no in-sync replica available")
			return
		}
		r.m.reads.Add(1)
		res := r.hedge(req.Context(), rg, cands, tail, body)
		if res.err != nil {
			writeError(w, http.StatusBadGateway, res.err.Error())
			return
		}
		if ct := res.contentType; ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		// The body is fully buffered, so relay it in one piece rather
		// than re-chunked.
		w.Header().Set("Content-Length", strconv.Itoa(len(res.body)))
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
	}
}

// handleBatch forwards the NDJSON stream to one in-sync member and relays
// the response as it arrives. Batches are not hedged: the stream is
// incremental and the member flushes results as they finish, so replaying
// it elsewhere mid-flight would interleave two orderings.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	rg, ok := r.graphOr404(w, req)
	if !ok {
		return
	}
	cands := r.readCandidates(rg)
	if len(cands) == 0 {
		r.unavailable(w, "no in-sync replica available")
		return
	}
	r.m.reads.Add(1)
	i := cands[0]
	n := r.nodes[i]
	rg.mu.Lock()
	remoteID := rg.rep[i].remoteID
	rg.mu.Unlock()
	n.mu.Lock()
	base := n.base
	n.mu.Unlock()
	preq, err := http.NewRequestWithContext(req.Context(), http.MethodPost,
		base+"/v1/graphs/"+remoteID+"/batch", http.MaxBytesReader(w, req.Body, r.opts.maxBodyBytes()))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	preq.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := r.httpClient().Do(preq)
	if err != nil {
		n.markDown()
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	n.markUp()
	defer resp.Body.Close()
	// The member's reply is relayed while the request body may still be
	// streaming to it; keep that body readable after the first flush.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		nn, rerr := resp.Body.Read(buf)
		if nn > 0 {
			if _, werr := w.Write(buf[:nn]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// handleMutate serializes the graph's write path: forward the edge op to
// the acting owner, then push the resulting delta (epoch + fingerprint
// chain link) to the other members synchronously, so an acknowledged
// mutation is applied — and verified — everywhere an in-sync replica
// serves reads from.
func (r *Router) handleMutate(add bool) http.HandlerFunc {
	op := graphio.OpDelEdge
	if add {
		op = graphio.OpAddEdge
	}
	return func(w http.ResponseWriter, req *http.Request) {
		rg, ok := r.graphOr404(w, req)
		if !ok {
			return
		}
		var mr server.MutateRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, r.opts.maxBodyBytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&mr); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		rg.mu.Lock()
		defer rg.mu.Unlock()
		var resp *server.MutateResponse
		owner := -1
		for _, i := range rg.mem {
			st := rg.rep[i]
			if !st.ok || st.gen != r.nodes[i].generation() || !r.nodes[i].usable(r.opts.probation()) {
				continue
			}
			var err error
			if add {
				resp, err = r.nodes[i].client().AddEdge(req.Context(), st.remoteID, mr.U, mr.V)
			} else {
				resp, err = r.nodes[i].client().DeleteEdge(req.Context(), st.remoteID, mr.U, mr.V)
			}
			if err != nil {
				if isTransport(err) {
					r.nodes[i].markDown()
					st.ok = false
					r.m.failovers.Add(1)
					continue
				}
				relayError(w, err) // semantic refusal (400, ...) is the answer
				return
			}
			r.nodes[i].markUp()
			st.epoch = resp.Epoch
			owner = i
			break
		}
		if owner < 0 {
			r.unavailable(w, "no in-sync replica available")
			return
		}
		r.m.mutations.Add(1)
		if resp.Applied {
			u, v := int32(mr.U), int32(mr.V)
			if u > v {
				u, v = v, u
			}
			entry := []server.WireDelta{{Op: op, U: u, V: v, Epoch: resp.Epoch, Fingerprint: resp.Fingerprint}}
			t0 := time.Now()
			for _, j := range rg.mem {
				if j == owner {
					continue
				}
				_ = r.replicateTo(req.Context(), rg, j, owner, entry)
			}
			r.m.replPush.Observe(time.Since(t0))
		}
		// No-op mutations (Applied=false) replicate nothing: no epoch was
		// consumed, so the members are already in agreement.
		writeJSON(w, http.StatusOK, *resp)
	}
}

// handleCompact compacts every in-sync member. All members hold the same
// edge set at the same epoch, so each independently folds to the same CSR
// and the same canonical fingerprint — verified, and a member that
// disagrees is marked out of sync for resync on the next write.
func (r *Router) handleCompact(w http.ResponseWriter, req *http.Request) {
	rg, ok := r.graphOr404(w, req)
	if !ok {
		return
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	var first *server.MutateResponse
	for _, i := range rg.mem {
		st := rg.rep[i]
		if !st.ok || st.gen != r.nodes[i].generation() || !r.nodes[i].usable(r.opts.probation()) {
			continue
		}
		resp, err := r.nodes[i].client().Compact(req.Context(), st.remoteID)
		if err != nil {
			if isTransport(err) {
				r.nodes[i].markDown()
			}
			st.ok = false
			continue
		}
		r.nodes[i].markUp()
		st.epoch = resp.Epoch
		if first == nil {
			first = resp
		} else if resp.Fingerprint != first.Fingerprint {
			// Divergence a compaction cannot hide; retire the copy.
			st.ok = false
		}
	}
	if first == nil {
		r.unavailable(w, "no in-sync replica available")
		return
	}
	writeJSON(w, http.StatusOK, *first)
}
