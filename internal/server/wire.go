package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/algo"
	"repro/internal/graphio"
	"repro/internal/store"
)

// Result is the JSON wire form of algo.Result: every deterministic field of
// the envelope, so an HTTP response can be compared bit-for-bit against a
// direct engine call (the end-to-end equivalence suite pins this, with only
// ElapsedNS — wall time — excluded from the comparison). Raw is
// deliberately absent: the typed payloads are in-process currency.
//
// The server writes a Result with appendResult, not encoding/json, so the
// struct tags below serve only decoding (Client, tests). appendResult
// writes exactly the bytes json.Encoder.Encode writes for these tags;
// FuzzWireResult pins the tags and the encoder to each other, so a change
// to either must change both.
type Result struct {
	Algorithm string `json:"algorithm"`
	Key       string `json:"key"`
	Kind      string `json:"kind"`
	Snapshot  string `json:"snapshot,omitempty"`

	ClusterOf   []int32   `json:"cluster_of,omitempty"`
	ColorOf     []int32   `json:"color_of,omitempty"`
	Clusters    [][]int32 `json:"clusters,omitempty"`
	NumClusters int       `json:"num_clusters"`
	NumColors   int       `json:"num_colors,omitempty"`
	Unclustered int       `json:"unclustered,omitempty"`

	Solution []bool `json:"solution,omitempty"`
	Value    int64  `json:"value,omitempty"`
	Exact    bool   `json:"exact,omitempty"`
	Feasible bool   `json:"feasible,omitempty"`

	Rounds  int                `json:"rounds"`
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// ElapsedNS is the wall-clock compute time in nanoseconds (zero on
	// cache hits; excluded from equivalence comparisons).
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
}

// WireResult converts an engine result into its wire form. Slices alias the
// (immutable, shared) envelope; callers must not mutate them.
func WireResult(r *algo.Result) *Result {
	return &Result{
		Algorithm:   r.Algorithm,
		Key:         r.Key,
		Kind:        r.Kind.String(),
		Snapshot:    r.Snapshot,
		ClusterOf:   r.ClusterOf,
		ColorOf:     r.ColorOf,
		Clusters:    r.Clusters,
		NumClusters: r.NumClusters,
		NumColors:   r.NumColors,
		Unclustered: r.Unclustered,
		Solution:    r.Solution,
		Value:       r.Value,
		Exact:       r.Exact,
		Feasible:    r.Feasible,
		Rounds:      r.Rounds,
		Metrics:     r.Metrics,
		ElapsedNS:   int64(r.Elapsed),
	}
}

// RunRequest is the body of POST /v1/graphs/{id}/run and of each line of a
// batch stream. Parameters arrive either as a JSON object (Params) or as a
// trace-language "k=v k=v" bag (Q); the two are merged, duplicate keys
// rejected.
type RunRequest struct {
	// Algo is a registry name or alias.
	Algo string `json:"algo"`
	// Params is the key=value parameter bag in object form.
	Params map[string]string `json:"params,omitempty"`
	// Q is the parameter bag in trace-line form ("eps=0.3 seed=4").
	Q string `json:"q,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds (0 = the
	// server's default); the request context is cancelled when it expires,
	// which stops the computation through the registry's cancellation
	// plumbing.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// errBadRequest marks client errors that must map to 400.
var errBadRequest = errors.New("bad request")

func badReqf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}

// decodeJSON strictly decodes one JSON value from r into v: unknown fields
// and trailing garbage are errors, so malformed requests fail loudly with
// 400 instead of silently running defaults.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badReqf("decoding body: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return badReqf("trailing data after JSON body")
	}
	return nil
}

// resolve validates the request against the registry: the algorithm must
// exist, the merged parameter bag must contain only declared keys, and every
// value must parse (Spec.CacheKey canonicalizes all of them). Returns the
// resolved spec and the merged bag.
func (rq *RunRequest) resolve() (*algo.Spec, algo.Params, error) {
	if rq.Algo == "" {
		return nil, nil, badReqf("missing algo (registry has %s)", strings.Join(algo.Names(), ", "))
	}
	spec, ok := algo.Get(rq.Algo)
	if !ok {
		return nil, nil, badReqf("unknown algorithm %q (registry has %s)", rq.Algo, strings.Join(algo.Names(), ", "))
	}
	params := make(algo.Params, len(rq.Params)+4)
	for k, v := range rq.Params {
		params[k] = v
	}
	if rq.Q != "" {
		bag, err := algo.ParseParamString(rq.Q)
		if err != nil {
			return nil, nil, badReqf("parsing q: %v", err)
		}
		for k, v := range bag {
			if _, dup := params[k]; dup {
				return nil, nil, badReqf("param %q set in both params and q", k)
			}
			params[k] = v
		}
	}
	if rq.TimeoutMS < 0 {
		return nil, nil, badReqf("negative timeout_ms %d", rq.TimeoutMS)
	}
	if _, err := spec.CacheKey(params); err != nil {
		return nil, nil, badReqf("%v", err)
	}
	return spec, params, nil
}

// timeout returns the effective deadline for the request.
func (rq *RunRequest) timeout(def time.Duration) time.Duration {
	if rq.TimeoutMS > 0 {
		return time.Duration(rq.TimeoutMS) * time.Millisecond
	}
	return def
}

// GenerateRequest is the JSON body of POST /v1/graphs when generating a
// graph server-side instead of uploading one.
type GenerateRequest struct {
	// Family is a gen.Family name: cycle|path|grid|torus|gnp|regular.
	Family string `json:"family"`
	// N is the approximate vertex count.
	N int `json:"n"`
	// Seed drives the generator's randomness.
	Seed uint64 `json:"seed,omitempty"`
}

// MutateRequest is the body of the addedge / deledge endpoints.
type MutateRequest struct {
	U int `json:"u"`
	V int `json:"v"`
}

// MutateResponse reports the outcome of a mutation.
type MutateResponse struct {
	// Applied is false when the mutation was a no-op (edge already
	// present / already absent).
	Applied bool `json:"applied"`
	// Epoch and Fingerprint identify the store version after the call.
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
	M           int    `json:"m"`
}

// QueryRequest is the body of POST /v1/graphs/{id}/query: batch point
// queries served from the engine's cached decomposition (op "cluster") or
// straight off the snapshot overlay (op "ball"). Zero-valued cluster
// parameters take the trace-language defaults (eps 0.3, scale 0.05,
// seed 1).
type QueryRequest struct {
	Op       string  `json:"op"` // "cluster" | "ball"
	Vertices []int32 `json:"vertices"`
	// Radius is the ball radius (op "ball"; default 2).
	Radius int `json:"radius,omitempty"`
	// Eps, Scale, Seed, Skip2 select the ChangLi decomposition backing
	// op "cluster".
	Eps   float64 `json:"eps,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
	Skip2 bool    `json:"skip2,omitempty"`
}

// ClusterParams is the changli parameter bag behind op "cluster": the
// request's eps, scale, seed and skip2, with the defaults for zero values.
func (q QueryRequest) ClusterParams() algo.Params {
	eps, scale, seed := q.Eps, q.Scale, q.Seed
	if eps == 0 {
		eps = 0.3
	}
	if scale == 0 {
		scale = 0.05
	}
	if seed == 0 {
		seed = 1
	}
	return algo.Params{
		"eps":   strconv.FormatFloat(eps, 'g', -1, 64),
		"scale": strconv.FormatFloat(scale, 'g', -1, 64),
		"seed":  strconv.FormatUint(seed, 10),
		"skip2": strconv.FormatBool(q.Skip2),
	}
}

// QueryResponse carries the batch query results (one entry per requested
// vertex).
type QueryResponse struct {
	Clusters []int32   `json:"clusters,omitempty"`
	Balls    [][]int32 `json:"balls,omitempty"`
	// Snapshot is the fingerprint of the store version the answer was
	// computed on.
	Snapshot string `json:"snapshot"`
}

// GraphInfo is the wire description of one served graph.
type GraphInfo struct {
	ID            string `json:"id"`
	N             int    `json:"n"`
	M             int    `json:"m"`
	Fingerprint   string `json:"fingerprint"`
	Epoch         uint64 `json:"epoch"`
	PendingDeltas int    `json:"pending_deltas"`
	Patched       int    `json:"patched_vertices"`
	Adds          uint64 `json:"adds"`
	Dels          uint64 `json:"dels"`
	Compactions   uint64 `json:"compactions"`
	// DeltaBytes is the exact on-disk footprint of the pending delta log
	// (0 for memory-only graphs, which keep nothing on disk).
	DeltaBytes int64 `json:"delta_bytes"`
	// Durable reports whether mutations to this graph survive restarts;
	// CheckpointEpoch is the epoch of its on-disk checkpoint.
	Durable         bool   `json:"durable,omitempty"`
	CheckpointEpoch uint64 `json:"checkpoint_epoch,omitempty"`
	CreatedUnix     int64  `json:"created_unix"`
}

func graphInfo(sg *servedGraph) GraphInfo {
	st := sg.st.Stats()
	return GraphInfo{
		ID:              sg.id,
		N:               st.N,
		M:               st.M,
		Fingerprint:     st.Fingerprint.String(),
		Epoch:           st.Epoch,
		PendingDeltas:   st.PendingDeltas,
		Patched:         st.PatchedVertices,
		Adds:            st.Adds,
		Dels:            st.Dels,
		Compactions:     st.Compactions,
		DeltaBytes:      st.DeltaBytes,
		Durable:         st.Durable,
		CheckpointEpoch: st.CheckpointEpoch,
		CreatedUnix:     sg.created.Unix(),
	}
}

// mutateResponse builds the response for a mutation from a one-shot stats
// read.
func mutateResponse(applied bool, st store.Stats) MutateResponse {
	return MutateResponse{Applied: applied, Epoch: st.Epoch, Fingerprint: st.Fingerprint.String(), M: st.M}
}

// BatchLine is one line of a batch response stream: the 0-indexed position
// of the request in the input stream plus either its result or its error.
type BatchLine struct {
	Index  int     `json:"index"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
	Status int     `json:"status,omitempty"` // HTTP-equivalent status for errors
}

// AlgorithmInfo describes one registry entry in the catalog endpoint.
type AlgorithmInfo struct {
	Name       string           `json:"name"`
	Aliases    []string         `json:"aliases,omitempty"`
	Summary    string           `json:"summary"`
	Kind       string           `json:"kind"`
	Seeded     bool             `json:"seeded,omitempty"`
	Weighted   bool             `json:"weighted,omitempty"`
	Workers    bool             `json:"workers,omitempty"`
	Repairable bool             `json:"repairable,omitempty"`
	Params     []AlgorithmParam `json:"params,omitempty"`
}

// AlgorithmParam documents one declared parameter.
type AlgorithmParam struct {
	Key     string `json:"key"`
	Default string `json:"default"`
	Doc     string `json:"doc"`
	NoCache bool   `json:"no_cache,omitempty"`
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// WireDelta is one replicated store mutation on the wire: the delta plus
// the fingerprint the owner's chain reached after applying it (replicas
// re-derive the link and refuse the entry on mismatch).
type WireDelta struct {
	Op          byte   `json:"op"`
	U           int32  `json:"u"`
	V           int32  `json:"v"`
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
}

func wireDeltas(entries []store.DeltaEntry) []WireDelta {
	out := make([]WireDelta, len(entries))
	for i, e := range entries {
		out[i] = WireDelta{
			Op: byte(e.Op), U: e.U, V: e.V, Epoch: e.Epoch,
			Fingerprint: e.Fingerprint.String(),
		}
	}
	return out
}

func (d WireDelta) toStore() (store.DeltaEntry, error) {
	fp, err := graphio.ParseFingerprint(d.Fingerprint)
	if err != nil {
		return store.DeltaEntry{}, err
	}
	return store.DeltaEntry{Op: store.Op(d.Op), U: d.U, V: d.V, Epoch: d.Epoch, Fingerprint: fp}, nil
}

// ReplicateRequest ships owner deltas to a replica (POST
// /v1/graphs/{id}/deltas). Entries must be consecutive epochs extending the
// replica's current position.
type ReplicateRequest struct {
	Entries []WireDelta `json:"entries"`
}

// ReplicateResponse reports the replica's position after an apply attempt.
// On a refused entry the response carries a non-2xx status (409 for an
// epoch gap, 422 for divergence) with Applied counting the prefix that did
// apply and Error naming the first refusal.
type ReplicateResponse struct {
	Applied     int    `json:"applied"`
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
	M           int    `json:"m"`
	Error       string `json:"error,omitempty"`
}

// DeltasResponse is the owner-side delta export (GET
// /v1/graphs/{id}/deltas?since=E). Resync=true means the cursor fell
// outside the pending window (compaction folded it away): the caller must
// reposition from a checkpoint (GET export) instead of streaming.
type DeltasResponse struct {
	Since       uint64      `json:"since"`
	Epoch       uint64      `json:"epoch"`
	Fingerprint string      `json:"fingerprint"`
	Resync      bool        `json:"resync,omitempty"`
	Entries     []WireDelta `json:"entries,omitempty"`
}

// appendResult appends r as json.NewEncoder(w).Encode(r) writes it: the
// object, in field order with the omitempty rules of Result's tags, and a
// newline. A NaN or infinite metric is an error, as it is for encoding/json;
// the returned buffer is then unspecified.
func appendResult(buf []byte, r *Result) ([]byte, error) {
	buf, err := appendResultObject(buf, r)
	return append(buf, '\n'), err
}

// appendBatchLine appends l as json.NewEncoder(w).Encode(l) writes it.
func appendBatchLine(buf []byte, l *BatchLine) ([]byte, error) {
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(l.Index), 10)
	if l.Result != nil {
		buf = append(buf, `,"result":`...)
		var err error
		if buf, err = appendResultObject(buf, l.Result); err != nil {
			return buf, err
		}
	}
	if l.Error != "" {
		buf = append(buf, `,"error":`...)
		buf = appendString(buf, l.Error)
	}
	if l.Status != 0 {
		buf = append(buf, `,"status":`...)
		buf = strconv.AppendInt(buf, int64(l.Status), 10)
	}
	return append(buf, "}\n"...), nil
}

func appendResultObject(buf []byte, r *Result) ([]byte, error) {
	buf = append(buf, `{"algorithm":`...)
	buf = appendString(buf, r.Algorithm)
	buf = append(buf, `,"key":`...)
	buf = appendString(buf, r.Key)
	buf = append(buf, `,"kind":`...)
	buf = appendString(buf, r.Kind)
	if r.Snapshot != "" {
		buf = append(buf, `,"snapshot":`...)
		buf = appendString(buf, r.Snapshot)
	}
	if len(r.ClusterOf) > 0 {
		buf = append(buf, `,"cluster_of":`...)
		buf = appendInt32s(buf, r.ClusterOf)
	}
	if len(r.ColorOf) > 0 {
		buf = append(buf, `,"color_of":`...)
		buf = appendInt32s(buf, r.ColorOf)
	}
	if len(r.Clusters) > 0 {
		buf = append(buf, `,"clusters":[`...)
		for i, c := range r.Clusters {
			if i > 0 {
				buf = append(buf, ',')
			}
			if c == nil {
				buf = append(buf, "null"...)
			} else {
				buf = appendInt32s(buf, c)
			}
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"num_clusters":`...)
	buf = strconv.AppendInt(buf, int64(r.NumClusters), 10)
	if r.NumColors != 0 {
		buf = append(buf, `,"num_colors":`...)
		buf = strconv.AppendInt(buf, int64(r.NumColors), 10)
	}
	if r.Unclustered != 0 {
		buf = append(buf, `,"unclustered":`...)
		buf = strconv.AppendInt(buf, int64(r.Unclustered), 10)
	}
	if len(r.Solution) > 0 {
		buf = append(buf, `,"solution":[`...)
		for i, x := range r.Solution {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendBool(buf, x)
		}
		buf = append(buf, ']')
	}
	if r.Value != 0 {
		buf = append(buf, `,"value":`...)
		buf = strconv.AppendInt(buf, r.Value, 10)
	}
	if r.Exact {
		buf = append(buf, `,"exact":true`...)
	}
	if r.Feasible {
		buf = append(buf, `,"feasible":true`...)
	}
	buf = append(buf, `,"rounds":`...)
	buf = strconv.AppendInt(buf, int64(r.Rounds), 10)
	if len(r.Metrics) > 0 {
		buf = append(buf, `,"metrics":{`...)
		keys := make([]string, 0, 16)
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for i, k := range keys {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendString(buf, k)
			buf = append(buf, ':')
			var err error
			if buf, err = appendFloat(buf, r.Metrics[k]); err != nil {
				return buf, fmt.Errorf("metric %q: %w", k, err)
			}
		}
		buf = append(buf, '}')
	}
	if r.ElapsedNS != 0 {
		buf = append(buf, `,"elapsed_ns":`...)
		buf = strconv.AppendInt(buf, r.ElapsedNS, 10)
	}
	return append(buf, '}'), nil
}

// appendInt32s appends xs as a JSON array of decimal integers: the bytes
// strconv.AppendInt writes, comma-separated. Results are id arrays with one
// entry per vertex, so this is most of an encoding's time. Each block of
// ids gets room for its longest form reserved once, and digits are written
// by index, two at a time, with no per-id call or capacity check; that is
// 2-3x faster than an AppendInt per id.
func appendInt32s(buf []byte, xs []int32) []byte {
	buf = append(buf, '[')
	for len(xs) > 0 {
		blk := xs[:min(len(xs), 256)]
		xs = xs[len(blk):]
		buf = slices.Grow(buf, len(blk)*len("-2147483648,"))
		b, n := buf[:cap(buf)], len(buf)
		for _, x := range blk {
			u := uint32(x)
			if x < 0 {
				b[n] = '-'
				n++
				u = -u
			}
			if u < 10 {
				b[n] = '0' + byte(u)
				n++
			} else {
				var tmp [10]byte
				j := len(tmp)
				for u >= 100 {
					r := u % 100
					u /= 100
					j -= 2
					tmp[j], tmp[j+1] = digitPairs[2*r], digitPairs[2*r+1]
				}
				if u >= 10 {
					j -= 2
					tmp[j], tmp[j+1] = digitPairs[2*u], digitPairs[2*u+1]
				} else {
					j--
					tmp[j] = '0' + byte(u)
				}
				n += copy(b[n:], tmp[j:])
			}
			b[n] = ','
			n++
		}
		buf = buf[:n]
	}
	if buf[len(buf)-1] == ',' { // at least one id: the last comma closes
		buf[len(buf)-1] = ']'
		return buf
	}
	return append(buf, ']')
}

// digitPairs holds the two-digit decimal forms of 0 through 99.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendFloat appends f in encoding/json's float64 format: 'f' form, or 'e'
// form with a one-digit exponent left unpadded outside [1e-6, 1e21).
func appendFloat(buf []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return buf, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7
		if n := len(buf); buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, nil
}

// appendString appends s as encoding/json quotes it with HTML escaping on:
// '"', '\\' and control bytes escaped (\b \f \n \r \t by name), '<', '>'
// and '&' as \u003c-style escapes, U+2028 and U+2029 escaped, and each
// invalid UTF-8 byte replaced by \ufffd.
func appendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		} else if c == '\u2028' || c == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

const hexDigits = "0123456789abcdef"
