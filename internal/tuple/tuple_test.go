package tuple

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func TestTupleRoundTrip(t *testing.T) {
	in := Tuple{Stream: 2, Key: 0xdeadbeef, Seq: 42, Ts: vclock.Time(1234567), Payload: []byte("hello")}
	buf := in.AppendTo(nil)
	if len(buf) != in.EncodedSize() {
		t.Fatalf("EncodedSize = %d, wrote %d", in.EncodedSize(), len(buf))
	}
	out, used, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) {
		t.Fatalf("consumed %d of %d bytes", used, len(buf))
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestTupleRoundTripEmptyPayload(t *testing.T) {
	in := Tuple{Stream: 0, Key: 1, Seq: 0}
	out, _, err := Decode(in.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Payload != nil {
		t.Fatalf("empty payload decoded as %v", out.Payload)
	}
	if out.Key != 1 {
		t.Fatalf("key = %d", out.Key)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("Decode of short buffer succeeded")
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	in := Tuple{Payload: []byte("0123456789")}
	buf := in.AppendTo(nil)
	if _, _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("Decode of truncated payload succeeded")
	}
}

func TestTupleRoundTripQuick(t *testing.T) {
	f := func(stream uint8, key, seq, ts uint64, payload []byte) bool {
		in := Tuple{Stream: stream, Key: key, Seq: seq, Ts: vclock.Time(ts), Payload: payload}
		out, used, err := Decode(in.AppendTo(nil))
		if err != nil || used != in.EncodedSize() {
			return false
		}
		if len(payload) == 0 {
			// nil and empty payloads are equivalent on the wire.
			return out.Stream == in.Stream && out.Key == in.Key &&
				out.Seq == in.Seq && out.Ts == in.Ts && len(out.Payload) == 0
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b Batch
	for i := 0; i < 100; i++ {
		b.Tuples = append(b.Tuples, Tuple{
			Stream:  uint8(rng.Intn(3)),
			Key:     rng.Uint64(),
			Seq:     uint64(i),
			Ts:      vclock.Time(rng.Int63()),
			Payload: bytes.Repeat([]byte{byte(i)}, rng.Intn(20)),
		})
	}
	got, err := DecodeBatch(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(b.Tuples) {
		t.Fatalf("len = %d, want %d", len(got.Tuples), len(b.Tuples))
	}
	for i := range b.Tuples {
		want, have := b.Tuples[i], got.Tuples[i]
		if len(want.Payload) == 0 {
			want.Payload, have.Payload = nil, nil
		}
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("tuple %d mismatch: %+v vs %+v", i, want, have)
		}
	}
}

func TestBatchRejectsTrailingBytes(t *testing.T) {
	b := Batch{Tuples: []Tuple{{Key: 1}}}
	buf := append(b.Encode(), 0xff)
	if _, err := DecodeBatch(buf); err == nil {
		t.Fatal("DecodeBatch accepted trailing bytes")
	}
}

func TestBatchEmpty(t *testing.T) {
	var b Batch
	got, err := DecodeBatch(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != 0 {
		t.Fatalf("decoded %d tuples from empty batch", len(got.Tuples))
	}
}

func TestMemSizeMonotonicInPayload(t *testing.T) {
	small := Tuple{Payload: make([]byte, 8)}
	large := Tuple{Payload: make([]byte, 64)}
	if small.MemSize() >= large.MemSize() {
		t.Fatalf("MemSize not monotonic: %d vs %d", small.MemSize(), large.MemSize())
	}
	var b Batch
	b.Tuples = []Tuple{small, large}
	if b.MemSize() != small.MemSize()+large.MemSize() {
		t.Fatalf("batch MemSize = %d", b.MemSize())
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := Result{Key: 99, Seqs: []uint64{1, 2, 3}}
	buf := in.AppendTo(nil)
	if len(buf) != in.EncodedSize() {
		t.Fatalf("EncodedSize = %d, wrote %d", in.EncodedSize(), len(buf))
	}
	out, used, err := DecodeResult(buf)
	if err != nil || used != len(buf) {
		t.Fatalf("decode: %v, used %d", err, used)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestDecodeResultErrors(t *testing.T) {
	if _, _, err := DecodeResult([]byte{1}); err == nil {
		t.Fatal("short buffer accepted")
	}
	in := Result{Key: 1, Seqs: []uint64{5, 6}}
	buf := in.AppendTo(nil)
	if _, _, err := DecodeResult(buf[:len(buf)-3]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
}

func TestResultSetDeduplicates(t *testing.T) {
	s := NewResultSet()
	r1 := Result{Key: 1, Seqs: []uint64{1, 2}}
	r2 := Result{Key: 1, Seqs: []uint64{1, 3}}
	if !s.Add(r1) {
		t.Fatal("first Add reported duplicate")
	}
	if s.Add(r1) {
		t.Fatal("duplicate Add reported new")
	}
	if !s.Add(r2) {
		t.Fatal("distinct result reported duplicate")
	}
	if s.Len() != 2 || s.Duplicates() != 1 {
		t.Fatalf("Len = %d, Duplicates = %d", s.Len(), s.Duplicates())
	}
	if !s.Contains(r1) || !s.Contains(r2) {
		t.Fatal("Contains failed for added results")
	}
}

func TestResultSetDiff(t *testing.T) {
	a, b := NewResultSet(), NewResultSet()
	r1 := Result{Key: 1, Seqs: []uint64{1}}
	r2 := Result{Key: 2, Seqs: []uint64{2}}
	a.Add(r1)
	a.Add(r2)
	b.Add(r1)
	if d := a.Diff(b); len(d) != 1 {
		t.Fatalf("Diff = %v, want one entry", d)
	}
	if d := b.Diff(a); len(d) != 0 {
		t.Fatalf("reverse Diff = %v, want empty", d)
	}
}

func TestResultFingerprintDistinguishesSeqOrder(t *testing.T) {
	r1 := Result{Key: 1, Seqs: []uint64{1, 2}}
	r2 := Result{Key: 1, Seqs: []uint64{2, 1}}
	if r1.FingerprintString() == r2.FingerprintString() {
		t.Fatal("different matches share a fingerprint")
	}
}

func TestIDOf(t *testing.T) {
	tp := Tuple{Stream: 3, Seq: 77}
	if id := IDOf(&tp); id.Stream != 3 || id.Seq != 77 {
		t.Fatalf("IDOf = %+v", id)
	}
}

// TestResultSetEncodedMatchesResult: the wire encoding is the
// fingerprint, so the encoded and decoded entry points see one set.
func TestResultSetEncodedMatchesResult(t *testing.T) {
	s := NewResultSet()
	r := Result{Key: 9, Seqs: []uint64{1, 2, 3}}
	enc := r.AppendTo(nil)
	if !s.AddEncoded(enc) || !s.Contains(r) || s.Add(r) {
		t.Fatal("AddEncoded and Add/Contains disagree")
	}
	other := Result{Key: 9, Seqs: []uint64{1, 2, 4}}
	if s.ContainsEncoded(other.AppendTo(nil)) || !s.ContainsEncoded(enc) {
		t.Fatal("ContainsEncoded disagrees with the added set")
	}
	if s.AddEncoded(enc) || s.Len() != 1 || s.Duplicates() != 2 {
		t.Fatalf("len %d dups %d, want 1 and 2", s.Len(), s.Duplicates())
	}
}
