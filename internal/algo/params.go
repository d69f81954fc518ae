package algo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ParamKind types a parameter value.
type ParamKind int

const (
	// Float is a float64 parameter (canonical form: strconv %g).
	Float ParamKind = iota + 1
	// Int is an int parameter.
	Int
	// Uint is a uint64 parameter (seeds).
	Uint
	// Bool is a boolean parameter ("true"/"false").
	Bool
	// String is a free-form token (no spaces).
	String
)

// ParamDef declares one parameter of an algorithm: its key, type, default
// (as a string, exactly as a user would write it), and documentation. The
// declaration order of a Spec's Defs is the canonical cache-key order.
type ParamDef struct {
	Key     string
	Kind    ParamKind
	Default string
	Doc     string
	// NoCache excludes the parameter from cache keys: parallelism knobs
	// (worker counts) that cannot change the result must share cache slots
	// across values.
	NoCache bool
}

// appendCanonical parses raw under the def's kind and appends its canonical
// form to buf, so "0.30", ".3", and "0.3" all key alike. An empty raw is a
// parse error (the caller substitutes the default only when the key is
// absent, so "eps=" fails here exactly like it fails in the runners'
// decoders).
func (d ParamDef) appendCanonical(buf []byte, raw string) ([]byte, error) {
	switch d.Kind {
	case Float:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return buf, fmt.Errorf("param %s: %w", d.Key, err)
		}
		return strconv.AppendFloat(buf, f, 'g', -1, 64), nil
	case Int:
		i, err := strconv.Atoi(raw)
		if err != nil {
			return buf, fmt.Errorf("param %s: %w", d.Key, err)
		}
		return strconv.AppendInt(buf, int64(i), 10), nil
	case Uint:
		u, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return buf, fmt.Errorf("param %s: %w", d.Key, err)
		}
		return strconv.AppendUint(buf, u, 10), nil
	case Bool:
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return buf, fmt.Errorf("param %s: %w", d.Key, err)
		}
		return strconv.AppendBool(buf, b), nil
	case String:
		return append(buf, raw...), nil
	default:
		return buf, fmt.Errorf("param %s: unknown kind %d", d.Key, int(d.Kind))
	}
}

// Params is a flat key=value parameter bag: the uniform currency between
// trace lines, CLI flags, and the typed algorithm entry points. Values are
// kept as strings and decoded by the runner against its Spec's defaults.
type Params map[string]string

// ParseParams parses "key=value" tokens (trace-line or flag style) into a
// Params bag. Duplicate keys are an error.
func ParseParams(tokens []string) (Params, error) {
	p := make(Params, len(tokens))
	for _, tok := range tokens {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("bad param token %q (want key=value)", tok)
		}
		if _, dup := p[k]; dup {
			return nil, fmt.Errorf("duplicate param %q", k)
		}
		p[k] = v
	}
	return p, nil
}

// ParseParamString splits a whitespace-separated "k=v k=v" string.
func ParseParamString(s string) (Params, error) {
	return ParseParams(strings.Fields(s))
}

// String renders the bag as sorted "k=v" tokens (for error messages and
// traces; cache keys use Spec.CacheKey instead).
func (p Params) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + p[k]
	}
	return strings.Join(parts, " ")
}

// Clone returns a copy of the bag.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// decoder reads typed values out of a Params bag, accumulating the first
// error; runners decode all their parameters and then check err once.
type decoder struct {
	p   Params
	err error
}

func (d *decoder) raw(key, def string) string {
	if v, ok := d.p[key]; ok {
		return v
	}
	return def
}

func (d *decoder) float(key string, def float64) float64 {
	v, ok := d.p[key]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("param %s: %w", key, err)
	}
	return f
}

func (d *decoder) int(key string, def int) int {
	v, ok := d.p[key]
	if !ok {
		return def
	}
	i, err := strconv.Atoi(v)
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("param %s: %w", key, err)
	}
	return i
}

func (d *decoder) uint(key string, def uint64) uint64 {
	v, ok := d.p[key]
	if !ok {
		return def
	}
	u, err := strconv.ParseUint(v, 10, 64)
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("param %s: %w", key, err)
	}
	return u
}

func (d *decoder) bool(key string, def bool) bool {
	v, ok := d.p[key]
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("param %s: %w", key, err)
	}
	return b
}
