package cellcache

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Spec is a parsed cache engine specification. The textual grammar is
// a URL whose scheme selects the engine and whose query tunes the
// orthogonal axes (front-tier bounds, codec, TTL, breaker, faults):
//
//	memory://?entries=4096&bytes=256MiB
//	pairtree:///var/lib/stashd?compress=gzip&ttl=24h&entries=1024
//	faulty+pairtree:///tmp/chaos?fault_seed=7&fault_put=0.2&fault_torn=0.1
//	remote+memory://?peers=http://a:8080,http://b:8080&self=http://a:8080
//
// For the persistent engine, entries/bytes bound the in-memory front
// tier composed in front of the engine (entries=-1 disables it);
// compress selects the payload codec (none, gzip); ttl arms expiry
// with extend-on-read; breaker/breaker_backoff tune the store tier's
// circuit breaker (breaker=0 disables it). A "faulty+" scheme prefix
// wraps the engine in deterministic storage fault injection (see
// Faulty) tuned by the fault_* parameters — the chaos harness behind
// degraded-mode testing. A "remote+" scheme prefix wraps the engine in
// the cluster peer-fill tier (see Remote) tuned by peers= (required),
// self=, remote_timeout=, remote_breaker= (0 disables the per-peer
// breakers), and remote_backoff=; prefixes compose as
// remote+faulty+<engine>. Unknown query parameters are an error — a
// typoed knob must not silently select defaults.
type Spec struct {
	// Scheme is the engine: "memory" or "pairtree".
	Scheme string
	// Path roots the pairtree engine's files. Empty for memory.
	Path string
	// Entries and Bytes bound the in-memory tier (the whole cache for
	// memory, the front tier otherwise). Zero selects the defaults
	// (4096 entries, 256 MiB); Entries < 0 disables the tier.
	Entries int
	Bytes   int64
	// Codec is the stored-payload compression identity (CodecRaw,
	// CodecGzip). Frames are self-describing, so changing the codec
	// never invalidates existing entries.
	Codec byte
	// TTL, when positive, expires entries that go unread for TTL;
	// every read extends the lease (see Cache).
	TTL time.Duration
	// BreakerThreshold is the consecutive store-write failures that
	// trip the circuit breaker: 0 selects the default (5), negative
	// disables the breaker. Ignored without a store engine.
	BreakerThreshold int
	// BreakerBackoff is the initial open window before a half-open
	// probe (doubled per consecutive trip, jittered). Zero selects the
	// default (1s).
	BreakerBackoff time.Duration
	// Fault, when non-nil, wraps the store engine in a Faulty with
	// this profile ("faulty+" schemes).
	Fault *FaultProfile
	// Remote, when non-nil, wraps the store engine in the cluster
	// peer-fill tier ("remote+" schemes).
	Remote *RemoteConfig
}

// ParseSpec parses the engine-spec URL grammar.
func ParseSpec(raw string) (Spec, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return Spec{}, fmt.Errorf("cellcache: invalid cache spec %q: %w", raw, err)
	}
	sp := Spec{Scheme: u.Scheme, Path: u.Host + u.Path}
	if u.Opaque != "" {
		sp.Path = u.Opaque
	}
	if inner, ok := strings.CutPrefix(sp.Scheme, "remote+"); ok {
		sp.Scheme = inner
		sp.Remote = &RemoteConfig{}
	}
	if inner, ok := strings.CutPrefix(sp.Scheme, "faulty+"); ok {
		sp.Scheme = inner
		sp.Fault = &FaultProfile{}
	}
	switch sp.Scheme {
	case "memory":
		if sp.Path != "" && sp.Path != "/" {
			return Spec{}, fmt.Errorf("cellcache: memory:// takes no path (got %q)", sp.Path)
		}
		sp.Path = ""
	case "pairtree":
		sp.Path = strings.TrimSuffix(sp.Path, "/")
		if sp.Path == "" {
			return Spec{}, fmt.Errorf("cellcache: pairtree:// requires a directory path")
		}
	default:
		return Spec{}, fmt.Errorf("cellcache: unknown cache engine %q (want memory or pairtree)", sp.Scheme)
	}
	q, err := url.ParseQuery(u.RawQuery)
	if err != nil {
		return Spec{}, fmt.Errorf("cellcache: invalid cache spec query %q: %w", u.RawQuery, err)
	}
	for key, vals := range q {
		v := vals[len(vals)-1]
		switch key {
		case "entries":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Spec{}, fmt.Errorf("cellcache: invalid entries %q: %w", v, err)
			}
			sp.Entries = n
		case "bytes":
			n, err := ParseSize(v)
			if err != nil {
				return Spec{}, fmt.Errorf("cellcache: invalid bytes %q: %w", v, err)
			}
			sp.Bytes = n
		case "compress":
			c, err := ParseCodec(v)
			if err != nil {
				return Spec{}, fmt.Errorf("cellcache: %w", err)
			}
			sp.Codec = c
		case "ttl":
			d, err := time.ParseDuration(v)
			if err != nil {
				return Spec{}, fmt.Errorf("cellcache: invalid ttl %q: %w", v, err)
			}
			if d < 0 {
				return Spec{}, fmt.Errorf("cellcache: negative ttl %v", d)
			}
			sp.TTL = d
		case "breaker":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Spec{}, fmt.Errorf("cellcache: invalid breaker threshold %q (want 0 to disable or a positive count)", v)
			}
			if n == 0 {
				sp.BreakerThreshold = -1 // explicit off
			} else {
				sp.BreakerThreshold = n
			}
		case "breaker_backoff":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return Spec{}, fmt.Errorf("cellcache: invalid breaker_backoff %q (want a positive duration)", v)
			}
			sp.BreakerBackoff = d
		case "fault_seed", "fault_put", "fault_get", "fault_torn",
			"fault_latency", "fault_down_first", "fault_down_every", "fault_down_for":
			if sp.Fault == nil {
				return Spec{}, fmt.Errorf("cellcache: %s requires a faulty+ engine scheme", key)
			}
			if err := parseFaultParam(sp.Fault, key, v); err != nil {
				return Spec{}, err
			}
		case "peers", "self", "remote_timeout", "remote_breaker", "remote_backoff":
			if sp.Remote == nil {
				return Spec{}, fmt.Errorf("cellcache: %s requires a remote+ engine scheme", key)
			}
			if err := parseRemoteParam(sp.Remote, key, v); err != nil {
				return Spec{}, err
			}
		default:
			return Spec{}, fmt.Errorf("cellcache: unknown cache spec parameter %q", key)
		}
	}
	if sp.Remote != nil && len(sp.Remote.Peers) == 0 {
		return Spec{}, fmt.Errorf("cellcache: remote+ requires peers= (comma-separated shard base URLs)")
	}
	return sp, nil
}

// parseRemoteParam sets one remote-tier knob on the config.
func parseRemoteParam(r *RemoteConfig, key, v string) error {
	switch key {
	case "peers":
		for _, p := range strings.Split(v, ",") {
			if p = strings.TrimSpace(p); p != "" {
				r.Peers = append(r.Peers, p)
			}
		}
		if len(r.Peers) == 0 {
			return fmt.Errorf("cellcache: peers= lists no shard URLs")
		}
	case "self":
		r.Self = v
	case "remote_timeout":
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return fmt.Errorf("cellcache: invalid remote_timeout %q (want a positive duration)", v)
		}
		r.Timeout = d
	case "remote_breaker":
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("cellcache: invalid remote_breaker %q (want 0 to disable or a positive count)", v)
		}
		if n == 0 {
			r.BreakerThreshold = -1 // explicit off
		} else {
			r.BreakerThreshold = n
		}
	case "remote_backoff":
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return fmt.Errorf("cellcache: invalid remote_backoff %q (want a positive duration)", v)
		}
		r.BreakerBackoff = d
	}
	return nil
}

// parseFaultParam sets one fault_* knob on the profile.
func parseFaultParam(p *FaultProfile, key, v string) error {
	switch key {
	case "fault_seed":
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("cellcache: invalid %s %q: %w", key, v, err)
		}
		p.Seed = n
	case "fault_put", "fault_get", "fault_torn":
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || x < 0 || x > 1 {
			return fmt.Errorf("cellcache: invalid %s %q (want a probability in [0,1])", key, v)
		}
		switch key {
		case "fault_put":
			p.PutErr = x
		case "fault_get":
			p.GetErr = x
		case "fault_torn":
			p.Torn = x
		}
	case "fault_latency":
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return fmt.Errorf("cellcache: invalid %s %q (want a non-negative duration)", key, v)
		}
		p.Latency = d
	case "fault_down_first", "fault_down_every", "fault_down_for":
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("cellcache: invalid %s %q (want a non-negative count)", key, v)
		}
		switch key {
		case "fault_down_first":
			p.DownFirst = n
		case "fault_down_every":
			p.DownEvery = n
		case "fault_down_for":
			p.DownFor = n
		}
	}
	return nil
}

// String renders the spec back into the URL grammar (defaults
// omitted), suitable for logs.
func (sp Spec) String() string {
	var q []string
	if sp.Entries != 0 {
		q = append(q, "entries="+strconv.Itoa(sp.Entries))
	}
	if sp.Bytes != 0 {
		q = append(q, "bytes="+strconv.FormatInt(sp.Bytes, 10))
	}
	if sp.Codec != CodecRaw {
		q = append(q, "compress="+CodecName(sp.Codec))
	}
	if sp.TTL > 0 {
		q = append(q, "ttl="+sp.TTL.String())
	}
	switch {
	case sp.BreakerThreshold < 0:
		q = append(q, "breaker=0")
	case sp.BreakerThreshold > 0:
		q = append(q, "breaker="+strconv.Itoa(sp.BreakerThreshold))
	}
	if sp.BreakerBackoff > 0 {
		q = append(q, "breaker_backoff="+sp.BreakerBackoff.String())
	}
	scheme := sp.Scheme
	if sp.Remote != nil {
		r := sp.Remote
		q = append(q, "peers="+strings.Join(r.Peers, ","))
		if r.Self != "" {
			q = append(q, "self="+r.Self)
		}
		if r.Timeout > 0 {
			q = append(q, "remote_timeout="+r.Timeout.String())
		}
		switch {
		case r.BreakerThreshold < 0:
			q = append(q, "remote_breaker=0")
		case r.BreakerThreshold > 0:
			q = append(q, "remote_breaker="+strconv.Itoa(r.BreakerThreshold))
		}
		if r.BreakerBackoff > 0 {
			q = append(q, "remote_backoff="+r.BreakerBackoff.String())
		}
	}
	if sp.Fault != nil {
		scheme = "faulty+" + scheme
		p := sp.Fault
		if p.Seed != 0 {
			q = append(q, "fault_seed="+strconv.FormatUint(p.Seed, 10))
		}
		if p.PutErr > 0 {
			q = append(q, "fault_put="+strconv.FormatFloat(p.PutErr, 'g', -1, 64))
		}
		if p.GetErr > 0 {
			q = append(q, "fault_get="+strconv.FormatFloat(p.GetErr, 'g', -1, 64))
		}
		if p.Torn > 0 {
			q = append(q, "fault_torn="+strconv.FormatFloat(p.Torn, 'g', -1, 64))
		}
		if p.Latency > 0 {
			q = append(q, "fault_latency="+p.Latency.String())
		}
		if p.DownFirst > 0 {
			q = append(q, "fault_down_first="+strconv.Itoa(p.DownFirst))
		}
		if p.DownEvery > 0 {
			q = append(q, "fault_down_every="+strconv.Itoa(p.DownEvery))
		}
		if p.DownFor > 0 {
			q = append(q, "fault_down_for="+strconv.Itoa(p.DownFor))
		}
	}
	if sp.Remote != nil {
		scheme = "remote+" + scheme
	}
	s := scheme + "://" + sp.Path
	if len(q) > 0 {
		s += "?" + strings.Join(q, "&")
	}
	return s
}

// ParseSize parses a byte count with an optional binary-power suffix:
// "1024", "64KiB", "256MiB", "2GiB" (KB/MB/GB accepted as synonyms).
func ParseSize(s string) (int64, error) {
	mult := int64(1)
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
	} {
		if strings.HasSuffix(s, suf.name) {
			s, mult = strings.TrimSuffix(s, suf.name), suf.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative size")
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("size overflows int64")
	}
	return n * mult, nil
}

// Open parses an engine-spec URL and opens the cache it describes.
func Open(raw string) (*Cache, error) {
	sp, err := ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	return sp.Open()
}

// Open builds the engine the spec names, composes the Cache front over
// it, and runs the startup TTL scan for a store engine. A fault
// profile wraps the store engine in a Faulty; unless disabled, a store
// engine also gets the circuit breaker (default threshold, or the
// spec's breaker/breaker_backoff overrides).
func (sp Spec) Open() (*Cache, error) {
	c := newCache(sp.Codec, sp.TTL)
	if sp.Entries >= 0 {
		c.mem = NewMemory(sp.Entries, sp.Bytes)
	}
	var err error
	switch sp.Scheme {
	case "memory":
		// The memory tier is the whole cache — unless a wrapper needs
		// the Engine seam: a faulty or remote memory cache runs a second
		// Memory engine as the store tier behind the wrapper (chaos
		// tests with no disk; diskless cluster shards).
		if sp.Fault != nil || sp.Remote != nil {
			c.store = NewMemory(0, 0)
		}
	case "pairtree":
		c.store, err = OpenPairtree(sp.Path)
	default:
		err = fmt.Errorf("unknown cache engine %q", sp.Scheme)
	}
	if err != nil {
		return nil, fmt.Errorf("cellcache: opening %s engine: %w", sp.Scheme, err)
	}
	if c.store != nil && sp.Fault != nil {
		c.store = NewFaulty(c.store, *sp.Fault)
	}
	if sp.Remote != nil {
		// Remote wraps outermost so peer fills adopt through the fault
		// injector (chaos realism) and Stats can find it by type.
		r, err := NewRemote(c.store, *sp.Remote)
		if err != nil {
			return nil, err
		}
		c.store = r
	}
	if c.store != nil && sp.BreakerThreshold >= 0 {
		c.breaker = newBreaker(sp.BreakerThreshold, sp.BreakerBackoff,
			func() time.Time { return c.now() })
	}
	if c.store != nil && sp.TTL > 0 {
		c.purgeExpired()
	}
	return c, nil
}
