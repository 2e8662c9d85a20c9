// Identity layer: dense symbols for the identity strings every activity
// carries (hostname, program name, IP), interned once at the decode
// boundary, plus the packed integer key forms of Context and Channel the
// hot maps key on.
//
// Why two representations exist. The identity *vocabulary* — distinct
// host/program/IP strings — is small and bounded by the deployment, so a
// process-wide interner (Symbols) can map each string to a dense uint32
// symbol and never give it back. The identity *tuples* (contexts,
// channels) are not bounded: ephemeral ports make the channel space grow
// with connection count, so interning whole tuples to dense ids would
// leak in a forever-open collector that otherwise prunes its per-channel
// state (flow.Incremental does exactly that). CtxKey and ChanKey are
// therefore self-contained packed-integer structs — comparable, string-
// free, hashed as a few flat words — rather than interned ids: all the
// map-key speed, none of the unbounded interner state, and
// ChanKey.Reverse needs no interner round-trip.
//
// Strings survive on the Activity (render and report edges still print
// them); Bind replaces them with the interner's canonical copies, so a
// million parsed records share one "web.example.com" allocation instead
// of pinning a million log-line buffers.
package activity

import (
	"strings"
	"sync"
)

// Sym is a dense symbol for one interned identity string. The zero Sym is
// reserved and never allocated, so key forms built from symbols can use 0
// as the "not bound yet" sentinel.
type Sym uint32

// Symbols is a concurrency-safe string interner. The zero value is not
// usable; call NewSymbols. Lookups on already-interned strings take a
// read lock only.
type Symbols struct {
	mu   sync.RWMutex
	ids  map[string]Sym
	strs []string // Sym -> string; index 0 reserved
}

// NewSymbols returns an empty interner.
func NewSymbols() *Symbols {
	return &Symbols{ids: make(map[string]Sym), strs: []string{""}}
}

// Intern returns the dense symbol for str, allocating one on first sight.
func (s *Symbols) Intern(str string) Sym {
	sym, _ := s.intern(str)
	return sym
}

// intern returns the symbol and the canonical (interner-owned) copy of
// str, so callers can drop their own copy and share storage.
func (s *Symbols) intern(str string) (Sym, string) {
	s.mu.RLock()
	sym, ok := s.ids[str]
	if ok {
		canon := s.strs[sym]
		s.mu.RUnlock()
		return sym, canon
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if sym, ok = s.ids[str]; ok {
		return sym, s.strs[sym]
	}
	// Clone so the interner never pins a caller's larger backing array
	// (parsed records would otherwise keep whole log lines alive).
	str = strings.Clone(str)
	sym = Sym(len(s.strs))
	s.strs = append(s.strs, str)
	s.ids[str] = sym
	return sym, str
}

// internBytes interns a string given as bytes; on a hit it performs no
// allocation at all (the map index converts without copying).
func (s *Symbols) internBytes(b []byte) (Sym, string) {
	s.mu.RLock()
	sym, ok := s.ids[string(b)]
	if ok {
		canon := s.strs[sym]
		s.mu.RUnlock()
		return sym, canon
	}
	s.mu.RUnlock()
	return s.intern(string(b))
}

// bindBytes is the decoders' Bind: it fills a's identity strings and
// dense keys from the raw bytes of its four identity fields (a's pid,
// tid and ports already set). On a warm interner it allocates nothing.
func (s *Symbols) bindBytes(a *Activity, host, prog, srcIP, dstIP []byte) {
	a.CtxK.Host, a.Ctx.Host = s.internBytes(host)
	a.CtxK.Prog, a.Ctx.Program = s.internBytes(prog)
	a.ChanK.SrcIP, a.Chan.Src.IP = s.internBytes(srcIP)
	a.ChanK.DstIP, a.Chan.Dst.IP = s.internBytes(dstIP)
	packInts(a)
}

// Name returns the string a symbol was allocated for, or "" for the
// reserved zero symbol and out-of-range values.
func (s *Symbols) Name(sym Sym) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(sym) < len(s.strs) {
		return s.strs[sym]
	}
	return ""
}

// Len returns the number of interned strings (the reserved zero symbol
// not counted).
func (s *Symbols) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.strs) - 1
}

// CtxKey is the dense key form of a Context: the same identity as the
// (host, program, pid, tid) tuple, with the strings replaced by their
// interned symbols. Comparable, fixed-width, and free of pointer or
// string bytes — hashing one is a memhash over four words, not a walk
// over two strings.
type CtxKey struct {
	Host, Prog Sym
	PID, TID   int32
}

// Bound reports whether the key has been filled by Bind (the interner
// never allocates the zero symbol).
func (k CtxKey) Bound() bool { return k.Host != 0 }

// ChanKey is the dense key form of a Channel: both endpoint IPs as
// interned symbols plus the ports. Two bound ChanKeys are equal exactly
// when the underlying Channels are.
type ChanKey struct {
	SrcIP, DstIP     Sym
	SrcPort, DstPort int32
}

// Bound reports whether the key has been filled by Bind.
func (k ChanKey) Bound() bool { return k.SrcIP != 0 }

// Reverse returns the key of the opposite-direction channel — a field
// swap, no interner involved.
func (k ChanKey) Reverse() ChanKey {
	return ChanKey{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// Syms is the process-wide interner. Both codecs bind records against it
// at the decode boundary; consumers that meet a hand-built (unbound)
// record call Bind lazily, so symbols are consistent process-wide
// regardless of where a record entered.
var Syms = NewSymbols()

// Bind fills a's dense keys (CtxK, ChanK) from the process-wide interner
// and canonicalizes the identity strings to the interned copies. It is
// idempotent; a record whose identity fields are mutated after binding
// must be re-bound by clearing CtxK/ChanK first. Bind is safe for
// concurrent use on distinct records, but two goroutines must not bind
// the same record concurrently (it writes to *a).
func Bind(a *Activity) {
	if !a.CtxK.Bound() {
		Syms.bind(a)
	}
}

// bind is Bind on s. When all four identity strings are already interned
// (the steady state) it looks them up under one read lock.
func (s *Symbols) bind(a *Activity) {
	s.mu.RLock()
	h, okH := s.ids[a.Ctx.Host]
	p, okP := s.ids[a.Ctx.Program]
	src, okS := s.ids[a.Chan.Src.IP]
	dst, okD := s.ids[a.Chan.Dst.IP]
	if okH && okP && okS && okD {
		a.CtxK.Host, a.Ctx.Host = h, s.strs[h]
		a.CtxK.Prog, a.Ctx.Program = p, s.strs[p]
		a.ChanK.SrcIP, a.Chan.Src.IP = src, s.strs[src]
		a.ChanK.DstIP, a.Chan.Dst.IP = dst, s.strs[dst]
		s.mu.RUnlock()
	} else {
		s.mu.RUnlock()
		a.CtxK.Host, a.Ctx.Host = s.intern(a.Ctx.Host)
		a.CtxK.Prog, a.Ctx.Program = s.intern(a.Ctx.Program)
		a.ChanK.SrcIP, a.Chan.Src.IP = s.intern(a.Chan.Src.IP)
		a.ChanK.DstIP, a.Chan.Dst.IP = s.intern(a.Chan.Dst.IP)
	}
	packInts(a)
}

// packInts copies a's pid, tid and ports into its dense keys. The
// decoders reject a pid or tid outside int32; a hand-built record's is
// truncated.
func packInts(a *Activity) {
	a.CtxK.PID, a.CtxK.TID = int32(a.Ctx.PID), int32(a.Ctx.TID)
	a.ChanK.SrcPort, a.ChanK.DstPort = int32(a.Chan.Src.Port), int32(a.Chan.Dst.Port)
}

// recPool recycles decode-side Activity records: the network collector
// decodes every frame into pooled records, the session copies what it
// keeps (Session.Push and replay both copy before buffering), and the
// ingest front releases the decoded records once applied.
var recPool = sync.Pool{New: func() any { return new(Activity) }}

// NewRecord returns a zeroed Activity from the decode-side pool.
func NewRecord() *Activity { return recPool.Get().(*Activity) }

// ReleaseRecord returns a record to the decode-side pool. The caller must
// not retain any pointer to it; anything worth keeping was copied by the
// session when the record was applied.
func ReleaseRecord(a *Activity) {
	*a = Activity{}
	recPool.Put(a)
}
