package cost

import (
	"bytes"
	"strings"
	"testing"

	"github.com/adamant-db/adamant/internal/vclock"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 20, 21},
	}
	for _, c := range cases {
		if got := BucketOf(c.n); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestObserveEWMA(t *testing.T) {
	c := New()
	k := Key{"filter", "dev", 10}
	c.Observe(k, 100, 1000) // 10 ns/unit, first sample sets directly
	e, ok := c.Lookup(k)
	if !ok || e.NsPerUnit != 10 || e.Samples != 1 {
		t.Fatalf("first sample: %+v ok=%v", e, ok)
	}
	c.Observe(k, 100, 2000) // 20 ns/unit -> 0.25*20 + 0.75*10 = 12.5
	e, _ = c.Lookup(k)
	if e.NsPerUnit != 12.5 || e.Samples != 2 {
		t.Fatalf("EWMA: %+v", e)
	}
	// Invalid observations are dropped.
	c.Observe(k, 0, 1000)
	c.Observe(k, -5, 1000)
	c.Observe(k, 10, -1)
	if e, _ := c.Lookup(k); e.Samples != 2 {
		t.Fatalf("invalid observations counted: %+v", e)
	}
	var nilCat *Catalog
	nilCat.Observe(k, 1, 1) // must not panic
	if nilCat.Len() != 0 {
		t.Fatal("nil catalog grew")
	}
}

func TestNearest(t *testing.T) {
	c := New()
	c.Observe(Key{"k", "d", 8}, 1, 80)
	c.Observe(Key{"k", "d", 12}, 1, 120)
	c.Observe(Key{"k", "other", 10}, 1, 999)

	if e, ok := c.Nearest(Key{"k", "d", 8}); !ok || e.NsPerUnit != 80 {
		t.Fatalf("exact hit: %+v ok=%v", e, ok)
	}
	// Bucket 10 is equidistant from 8 and 12: the smaller bucket wins.
	if e, ok := c.Nearest(Key{"k", "d", 10}); !ok || e.NsPerUnit != 80 {
		t.Fatalf("tie should prefer smaller bucket: %+v ok=%v", e, ok)
	}
	if e, ok := c.Nearest(Key{"k", "d", 11}); !ok || e.NsPerUnit != 120 {
		t.Fatalf("nearest: %+v ok=%v", e, ok)
	}
	if _, ok := c.Nearest(Key{"missing", "d", 8}); ok {
		t.Fatal("missing primitive matched")
	}
	if _, ok := c.Nearest(Key{"k", "missing", 8}); ok {
		t.Fatal("missing driver matched")
	}
	var nilCat *Catalog
	if _, ok := nilCat.Nearest(Key{"k", "d", 8}); ok {
		t.Fatal("nil catalog matched")
	}
}

// TestRoundTrip pins the serialization satellite: WriteTo emits sorted
// keys and exact hex-float rates, Read reproduces the catalog exactly, and
// a second WriteTo is byte-identical.
func TestRoundTrip(t *testing.T) {
	c := New()
	c.Observe(Key{"zeta", "b-dev", 3}, 7, 12345)
	c.Observe(Key{"alpha", "b-dev", 5}, 3, 10007) // non-terminating rate
	c.Observe(Key{"alpha", "a-dev", 5}, 1, 42)
	c.Observe(Key{PrimH2D, "a-dev", 20}, 1<<20, 7*vclock.Millisecond)
	c.Observe(Key{"alpha", "a-dev", 5}, 9, 100) // EWMA-blended entry

	var buf1 bytes.Buffer
	n, err := c.WriteTo(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf1.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf1.Len())
	}
	serialized := append([]byte(nil), buf1.Bytes()...) // Read drains the buffer
	lines := strings.Split(strings.TrimRight(buf1.String(), "\n"), "\n")
	if lines[0] != "adamant-cost-catalog v1" {
		t.Fatalf("header: %q", lines[0])
	}
	for i := 2; i < len(lines); i++ {
		if !(lines[i-1] < lines[i]) {
			t.Fatalf("lines not sorted: %q >= %q", lines[i-1], lines[i])
		}
	}

	got, err := Read(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("round-trip len %d != %d", got.Len(), c.Len())
	}
	for _, k := range c.Keys() {
		want, _ := c.Lookup(k)
		have, ok := got.Lookup(k)
		if !ok || want != have {
			t.Fatalf("key %v: want %+v, got %+v (ok=%v)", k, want, have, ok)
		}
	}

	var buf2 bytes.Buffer
	if _, err := got.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialized, buf2.Bytes()) {
		t.Fatal("second serialization not byte-identical")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong-header\n",
		"adamant-cost-catalog v1\nonly\ttwo\n",
		"adamant-cost-catalog v1\nk\td\tNaB\t0x1p+0\t1\n",
		"adamant-cost-catalog v1\nk\td\t3\tnot-a-float\t1\n",
		"adamant-cost-catalog v1\nk\td\t3\t0x1p+0\tnope\n",
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) succeeded", in)
		}
	}
}

func TestObserveQuery(t *testing.T) {
	c := New()
	c.ObserveQuery("chunked", "d", "s1t1-FILTER1/00", 1000, vclock.Duration(5000))
	if e, ok := c.Lookup(Key{PrimQueryPrefix + "chunked/s1t1-FILTER1/00", "d", BucketOf(1000)}); !ok || e.NsPerUnit != 5 {
		t.Fatalf("query entry: %+v ok=%v", e, ok)
	}
	// Zero rows still records (bucket 0, one unit).
	c.ObserveQuery("oaat", "d", "s", 0, vclock.Duration(7))
	if e, ok := c.Lookup(Key{PrimQueryPrefix + "oaat/s", "d", 0}); !ok || e.NsPerUnit != 7 {
		t.Fatalf("zero-row query entry: %+v ok=%v", e, ok)
	}
	// The shape is part of the key: another plan's rate is not this one's.
	if _, ok := c.Lookup(queryKey("chunked", "d", "other", 1000)); ok {
		t.Fatal("rate found under another shape")
	}
}
