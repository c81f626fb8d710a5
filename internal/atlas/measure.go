package atlas

import (
	"hash/fnv"
	"math"
	"math/rand"
	"net/netip"
	"strconv"

	"anysim/internal/bgp"
	"anysim/internal/dnssim"
	"anysim/internal/geo"
	"anysim/internal/netplan"
	"anysim/internal/topo"
)

// LatencyModel converts forwarding-path geometry into round-trip times.
type LatencyModel struct {
	// Inflation scales great-circle path segments to fibre-route lengths.
	Inflation float64
	// PerHopMs is the processing/queueing cost per AS hop.
	PerHopMs float64
	// JitterMs bounds the deterministic per-(probe,prefix) noise term,
	// standing in for route instability and queueing variation.
	JitterMs float64
}

// DefaultLatencyModel returns the standard model: 25% fibre inflation over
// great-circle distance, 0.15 ms per AS hop, up to 1 ms jitter.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{Inflation: 1.25, PerHopMs: 0.15, JitterMs: 1.0}
}

// DNSMode selects between the paper's two DNS measurement configurations.
type DNSMode int

// DNS measurement modes (§5.1): LDNS resolves through the probe's local
// resolver; ADNS queries the CDN's authoritative servers directly.
const (
	LDNS DNSMode = iota
	ADNS
)

// String names the mode as the paper does.
func (m DNSMode) String() string {
	if m == LDNS {
		return "Local DNS"
	}
	return "Authoritative DNS"
}

// Measurer executes probe measurements against the simulated Internet.
type Measurer struct {
	Engine *bgp.Engine
	Addr   *Addressing
	Model  LatencyModel
	// SiteRouterProb is the probability a CDN site's on-site router
	// answers traceroute, making it the penultimate hop (Appendix B).
	SiteRouterProb float64
	Seed           int64
}

// NewMeasurer wires a measurer with the default latency model.
func NewMeasurer(e *bgp.Engine, ad *Addressing, seed int64) *Measurer {
	return &Measurer{Engine: e, Addr: ad, Model: DefaultLatencyModel(), SiteRouterProb: 0.45, Seed: seed}
}

// Forward returns the catchment of the probe for the prefix.
func (m *Measurer) Forward(p *Probe, prefix netip.Prefix) (bgp.Forward, bool) {
	return m.Engine.Lookup(prefix, p.ASN, p.City)
}

// WithEngine returns a copy of the measurer that resolves forwarding through
// e instead of the bound engine. Latency (model, seed, jitter) is untouched,
// so measurements over an engine fork are directly comparable with the
// original's: what-if captures swap only the routing state, never the
// measurement noise.
func (m *Measurer) WithEngine(e *bgp.Engine) *Measurer {
	if m == nil || m.Engine == e {
		return m
	}
	m2 := *m
	m2.Engine = e
	return &m2
}

// RTT converts a forwarding decision into the probe's round-trip time in
// milliseconds.
func (m *Measurer) RTT(p *Probe, fwd bgp.Forward) float64 {
	return m.RTTSalted(p, fwd, "")
}

// RTTSalted is RTT with an extra jitter salt, used when nominally identical
// measurements (e.g. different hostnames resolving to the same regional IP)
// should carry independent measurement noise, as in the paper's Appendix C
// hostname-generalisation study.
func (m *Measurer) RTTSalted(p *Probe, fwd bgp.Forward, salt string) float64 {
	base := geo.FiberRTTMs(fwd.DistKm * m.Model.Inflation)
	return base + float64(len(fwd.Path))*m.Model.PerHopMs + p.AccessMs + m.jitter(p, fwd.Prefix, salt)
}

// jitter is deterministic per (probe, prefix, salt), uniform in
// [0, JitterMs).
func (m *Measurer) jitter(p *Probe, prefix netip.Prefix, salt string) float64 {
	var buf [96]byte
	h := fnv.New64a()
	h.Write(m.jitterKey(buf[:0], p, prefix, salt))
	return seededFloat64(h.Sum64()) * m.Model.JitterMs
}

// jitterKey appends the jitter hash key "seed|probe|prefix|salt".
func (m *Measurer) jitterKey(b []byte, p *Probe, prefix netip.Prefix, salt string) []byte {
	b = strconv.AppendInt(b, m.Seed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(p.ID), 10)
	b = append(b, '|')
	if prefix.IsValid() {
		b = prefix.AppendTo(b)
	} else {
		b = append(b, "invalid Prefix"...) // what Prefix.String prints
	}
	b = append(b, '|')
	return append(b, salt...)
}

// seededFloat64 returns the first Float64 of rand.New(rand.NewSource(seed))
// in O(1), without building the generator.
//
// rngSource.Seed fills its 607-word register from the Lehmer generator
// x_{k+1} = 48271·x_k mod (2³¹−1), started at the reduced seed: it discards
// 20 outputs, then word i is x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^
// rngCooked[i]. The first Uint64 after Seed is vec[333] + vec[606], so the
// draw needs only the six outputs x_k = s·48271^k mod (2³¹−1) at
// k = 1020..1022 and 1839..1841 and two of the cooked constants. The Go 1
// compatibility promise freezes math/rand's seeded value stream, and
// TestSeededFloat64MatchesFreshSource pins the equality.
func seededFloat64(seed uint64) float64 {
	s := int64(seed) % lcgMod
	if s < 0 {
		s += lcgMod
	}
	if s == 0 {
		s = lcgZeroSeed
	}
	return firstFloat64(seed, seedWord(uint64(s), lcgPow[0:3], cooked333), seedWord(uint64(s), lcgPow[3:6], cooked606))
}

// firstFloat64 is Rand.Float64's first draw given the two register words
// it sums. A sum that rounds to 1.0 makes Float64 draw again (p ≈ 2⁻⁵⁴);
// that case falls back to math/rand itself.
func firstFloat64(seed uint64, feed, tap int64) float64 {
	if f := float64((feed+tap)&math.MaxInt64) / (1 << 63); f != 1 {
		return f
	}
	return rand.New(rand.NewSource(int64(seed))).Float64()
}

// seedWord is one register word as rngSource.Seed builds it from the
// reduced seed s, given 48271^k mod (2³¹−1) for its three LCG steps.
func seedWord(s uint64, pow []uint64, cooked int64) int64 {
	x0, x1, x2 := s*pow[0]%lcgMod, s*pow[1]%lcgMod, s*pow[2]%lcgMod
	return int64(x0)<<40 ^ int64(x1)<<20 ^ int64(x2) ^ cooked
}

// math/rand's seeding constants (math/rand/rng.go).
const (
	lcgMod      = 1<<31 - 1 // int32max, the seed LCG's modulus
	lcgMul      = 48271
	lcgZeroSeed = 89482311 // Seed's substitute for a seed ≡ 0
	// rngCooked[333] and rngCooked[606].
	cooked333 int64 = -4633371852008891965
	cooked606 int64 = 4152330101494654406
)

// lcgPow holds 48271^k mod (2³¹−1) for k = 1020..1022 (word 333) and
// k = 1839..1841 (word 606).
var lcgPow = func() (pow [6]uint64) {
	for i, k := range [6]int{1020, 1021, 1022, 1839, 1840, 1841} {
		pow[i] = 1
		for ; k > 0; k-- {
			pow[i] = pow[i] * lcgMul % lcgMod
		}
	}
	return pow
}()

// Ping measures the probe's RTT to the anycast prefix containing addr.
// ok is false when the probe has no route (the prefix is unreachable).
func (m *Measurer) Ping(p *Probe, addr netip.Addr) (float64, bool) {
	return m.PingSalted(p, addr, "")
}

// PingSalted is Ping with independent measurement noise per salt.
func (m *Measurer) PingSalted(p *Probe, addr netip.Addr, salt string) (float64, bool) {
	prefix, ok := m.prefixOf(addr)
	if !ok {
		return 0, false
	}
	fwd, ok := m.Forward(p, prefix)
	if !ok {
		return 0, false
	}
	return m.RTTSalted(p, fwd, salt), true
}

// prefixOf finds the announced prefix containing an address.
func (m *Measurer) prefixOf(addr netip.Addr) (netip.Prefix, bool) {
	for _, p := range m.Engine.Prefixes() {
		if p.Contains(addr) {
			return p, true
		}
	}
	return netip.Prefix{}, false
}

// Hop is one traceroute hop.
type Hop struct {
	Addr  netip.Addr
	Owner topo.ASN // 0 when the address is IXP fabric (invisible in BGP)
	IXP   string   // owning IXP when Owner is 0
	City  string   // true location (ground truth, not revealed to analyses)
	RTTMs float64
	RDNS  string // PTR record, "" if none
}

// Trace is a traceroute result.
type Trace struct {
	Probe  *Probe
	Prefix netip.Prefix
	Dest   netip.Addr
	Fwd    bgp.Forward
	// Hops excludes the destination; the last entry is the penultimate
	// hop (p-hop) the paper's site-mapping pipeline works on.
	Hops    []Hop
	Reached bool
}

// PHop returns the penultimate hop.
func (t *Trace) PHop() (Hop, bool) {
	if !t.Reached || len(t.Hops) == 0 {
		return Hop{}, false
	}
	return t.Hops[len(t.Hops)-1], true
}

// Traceroute runs a traceroute from the probe to the anycast address.
func (m *Measurer) Traceroute(p *Probe, addr netip.Addr) (*Trace, bool) {
	prefix, ok := m.prefixOf(addr)
	if !ok {
		return nil, false
	}
	fwd, ok := m.Forward(p, prefix)
	if !ok {
		return &Trace{Probe: p, Prefix: prefix, Dest: addr, Reached: false}, true
	}
	tr := &Trace{Probe: p, Prefix: prefix, Dest: addr, Fwd: fwd, Reached: true}
	totalRTT := m.RTT(p, fwd)

	// City waypoints along the path: probe city, each handoff, site city.
	waypoints := make([]string, 1, len(fwd.Cities)+1)
	waypoints[0] = p.City
	for _, c := range fwd.Cities {
		waypoints = append(waypoints, c.String())
	}
	cum := make([]float64, len(waypoints))
	for i := 1; i < len(waypoints); i++ {
		a := geo.MustCity(waypoints[i-1])
		b := geo.MustCity(waypoints[i])
		cum[i] = cum[i-1] + geo.DistanceKm(a.Coord, b.Coord)
	}
	total := cum[len(cum)-1]
	rttAt := func(km float64, hopIdx int) float64 {
		frac := 1.0
		if total > 0 {
			frac = km / total
		}
		rtt := totalRTT*frac + float64(hopIdx)*m.Model.PerHopMs
		if rtt > totalRTT {
			rtt = totalRTT
		}
		return rtt
	}

	addHop := func(asn topo.ASN, city string, unit int, km float64) {
		a, err := m.Addr.RouterAddr(asn, city, unit)
		if err != nil {
			return // AS not present there; skip the hop (missing hop in trace)
		}
		name, _ := m.Addr.RDNS(asn, city, unit)
		tr.Hops = append(tr.Hops, Hop{
			Addr:  a,
			Owner: asn,
			City:  city,
			RTTMs: rttAt(km, len(tr.Hops)),
			RDNS:  name,
		})
	}

	clientAS := fwd.Path[0]
	origin := fwd.Path[len(fwd.Path)-1]
	if clientAS == origin {
		// Probe inside the CDN's own network: gateway then site router.
		addHop(origin, p.City, 1, 0)
		addHop(origin, fwd.SiteCity(), 4, total)
		return tr, true
	}

	// Client gateway.
	addHop(clientAS, p.City, 1, 0)
	// Transit ASes: ingress (and egress when it differs).
	for i := 1; i < len(fwd.Path)-1; i++ {
		ingress := fwd.Cities[i-1].String()
		egress := fwd.Cities[i].String()
		addHop(fwd.Path[i], ingress, 2, cum[i])
		if egress != ingress {
			addHop(fwd.Path[i], egress, 3, cum[i+1])
		}
	}

	// Penultimate hop: the CDN's site router when it answers; otherwise
	// the IXP fabric port (for IXP-mediated final links) or the upstream's
	// egress router.
	siteCity := fwd.SiteCity()
	switch {
	case m.siteRouterAnswers(origin, fwd.Site, p.ID):
		addHop(origin, siteCity, 4, total)
	case fwd.FinalIXP != "":
		if a, err := m.Addr.IXPAddr(fwd.FinalIXP, origin); err == nil {
			name, _ := m.Addr.IXPPortRDNS(fwd.FinalIXP, origin)
			tr.Hops = append(tr.Hops, Hop{
				Addr:  a,
				IXP:   fwd.FinalIXP,
				City:  siteCity,
				RTTMs: rttAt(total, len(tr.Hops)),
				RDNS:  name,
			})
		} else {
			addHop(fwd.FinalUpstream, siteCity, 3, total)
		}
	default:
		addHop(fwd.FinalUpstream, siteCity, 3, total)
	}
	return tr, true
}

// siteRouterAnswers is deterministic per (origin, site, probe): whether the
// CDN's on-site router revealed itself as the penultimate hop for this
// probe's traceroute (rate limiting makes this vary across traceroutes in
// practice).
func (m *Measurer) siteRouterAnswers(origin topo.ASN, site string, probeID int) bool {
	var buf [64]byte
	h := fnv.New64a()
	h.Write(m.siteRouterKey(buf[:0], origin, site, probeID))
	return seededFloat64(h.Sum64()) < m.SiteRouterProb
}

// siteRouterKey appends the site-router hash key "srv|seed|origin|site|probe".
func (m *Measurer) siteRouterKey(b []byte, origin topo.ASN, site string, probeID int) []byte {
	b = append(b, "srv|"...)
	b = strconv.AppendInt(b, m.Seed, 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, uint64(origin), 10)
	b = append(b, '|')
	b = append(b, site...)
	b = append(b, '|')
	return strconv.AppendInt(b, int64(probeID), 10)
}

// ResolveHost resolves a hostname as the probe would, in the given DNS
// mode.
func (m *Measurer) ResolveHost(auth *dnssim.Authoritative, host string, p *Probe, mode DNSMode) (netip.Addr, bool) {
	if mode == ADNS || p.Resolver == nil {
		return auth.ResolveDirect(host, p.Addr)
	}
	return p.Resolver.Resolve(auth, host, p.Addr)
}

// VIPOf returns the conventional VIP (first host address) of a prefix.
func VIPOf(p netip.Prefix) netip.Addr { return netplan.NthAddr(p, 1) }
