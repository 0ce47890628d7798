package tuple

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Result is one m-way join match: the join key plus the per-stream sequence
// numbers of the participating tuples, ordered by stream index. Two Results
// are the same match if and only if their Key and Seqs are equal, which is
// what the exactness invariant (run-time output + cleanup output = oracle
// output, duplicate-free) is checked against.
//
// Results handed to a join.EmitFunc share the producer's scratch Seqs
// buffer (see the EmitFunc contract): consume them within the call, or
// Clone before retaining.
type Result struct {
	Key  uint64
	Seqs []uint64 // one entry per join input, indexed by stream
}

// Clone returns a deep copy whose Seqs the caller owns, for consumers
// that retain a result past an emit callback.
func (r *Result) Clone() Result {
	return Result{Key: r.Key, Seqs: append([]uint64(nil), r.Seqs...)}
}

// EncodedSize reports the byte size of Encode's output.
func (r *Result) EncodedSize() int { return 8 + 2 + 8*len(r.Seqs) }

// AppendTo appends the binary encoding of r to dst.
func (r *Result) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.Key)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Seqs)))
	for _, s := range r.Seqs {
		dst = binary.LittleEndian.AppendUint64(dst, s)
	}
	return dst
}

// DecodeResult parses one Result from the front of buf, returning it and the
// number of bytes consumed.
func DecodeResult(buf []byte) (Result, int, error) {
	if len(buf) < 10 {
		return Result{}, 0, fmt.Errorf("tuple: short result buffer: %d bytes", len(buf))
	}
	var r Result
	r.Key = binary.LittleEndian.Uint64(buf)
	n := int(binary.LittleEndian.Uint16(buf[8:]))
	need := 10 + 8*n
	if len(buf) < need {
		return Result{}, 0, fmt.Errorf("tuple: truncated result: need %d bytes, have %d", need, len(buf))
	}
	r.Seqs = make([]uint64, n)
	for i := 0; i < n; i++ {
		r.Seqs[i] = binary.LittleEndian.Uint64(buf[10+8*i:])
	}
	return r, need, nil
}

// FingerprintString returns a canonical string identity for the match,
// usable as a map key in duplicate detection.
func (r *Result) FingerprintString() string {
	buf := make([]byte, 0, r.EncodedSize())
	return string(r.AppendTo(buf))
}

// ResultSet is a duplicate-detecting collection of Results.
type ResultSet struct {
	seen map[string]struct{}
	dups int
}

// NewResultSet returns an empty ResultSet.
func NewResultSet() *ResultSet {
	return &ResultSet{seen: make(map[string]struct{})}
}

// Add inserts r, reporting whether it was new. Duplicates are counted.
func (s *ResultSet) Add(r Result) bool {
	return s.AddEncoded(r.AppendTo(make([]byte, 0, r.EncodedSize())))
}

// AddEncoded is Add for a result given in its AppendTo encoding, which
// is exactly its fingerprint: a consumer of encoded result batches dedups
// on the wire bytes without decoding or re-encoding. Only a new result
// copies its bytes (into the set's key).
func (s *ResultSet) AddEncoded(enc []byte) bool {
	if _, ok := s.seen[string(enc)]; ok {
		s.dups++
		return false
	}
	s.seen[string(enc)] = struct{}{}
	return true
}

// Len reports the number of distinct results added.
func (s *ResultSet) Len() int { return len(s.seen) }

// Duplicates reports how many duplicate Adds occurred.
func (s *ResultSet) Duplicates() int { return s.dups }

// Contains reports whether the exact match r has been added.
func (s *ResultSet) Contains(r Result) bool {
	return s.ContainsEncoded(r.AppendTo(make([]byte, 0, r.EncodedSize())))
}

// ContainsEncoded is Contains for a result in its AppendTo encoding; the
// lookup copies nothing.
func (s *ResultSet) ContainsEncoded(enc []byte) bool {
	_, ok := s.seen[string(enc)]
	return ok
}

// Union returns a new set holding every result of s and other (the
// duplicate counter starts at zero). Phase-split comparisons use it:
// which phase produces a match depends on spill timing, but the union
// across phases is invariant.
func (s *ResultSet) Union(other *ResultSet) *ResultSet {
	u := NewResultSet()
	for fp := range s.seen {
		u.seen[fp] = struct{}{}
	}
	for fp := range other.seen {
		u.seen[fp] = struct{}{}
	}
	return u
}

// Overlap counts results present in both sets (exactly-once checks:
// the run-time and cleanup sets of one run must not intersect).
func (s *ResultSet) Overlap(other *ResultSet) int {
	n := 0
	for fp := range s.seen {
		if _, ok := other.seen[fp]; ok {
			n++
		}
	}
	return n
}

// Diff returns fingerprints present in s but not in other, sorted for
// stable test output.
func (s *ResultSet) Diff(other *ResultSet) []string {
	var missing []string
	for fp := range s.seen {
		if _, ok := other.seen[fp]; !ok {
			missing = append(missing, fmt.Sprintf("%x", fp))
		}
	}
	sort.Strings(missing)
	return missing
}
