package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestAppendersMatchEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quote"back\slash`, "<a href='x'>&amp;</a>", "\x00\x01\b\f\n\r\t\x1f\x7f",
		"\xff", "a\xc3", "\xed\xa0\x80", "\u2028\u2029\u202a", "日本語🙂", "tail\xe2\x80",
	} {
		want, _ := json.Marshal(s) // strings always marshal
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 2.0 / 3, 100, 1e15, 1e15 - 1, -1e15, 123456789012345678,
		1e-6, 9.99999e-7, 3.3e-7, 1e-9, 1.5e-10, 1e-100, 5e-324, 1e20, 1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64,
		-9.99999e-7, -1e21, 0.1, 0.25, 2.5, 60,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
	for _, at := range []time.Time{
		time.Unix(1600000000, 0).UTC(), time.Unix(1600000000, 123456789).UTC(), time.Unix(1600000000, 120000000).UTC(),
		time.Date(2019, 1, 1, 0, 0, 0, 0, time.FixedZone("", 3600)),
	} {
		want, err := json.Marshal(at)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendTime(nil, at); !bytes.Equal(got, want) {
			t.Errorf("AppendTime(%v) = %s, want %s", at, got, want)
		}
	}
}

func TestFragsSortRangesByKey(t *testing.T) {
	var f Frags
	add := func(k1, k2, elem string) {
		off := len(f.Buf)
		f.Buf = append(f.Buf, elem...)
		f.Add(k1, k2, off)
	}
	add("b", "", "3")
	add("a", "z", "2")
	add("a", "", "1")
	mark := f.Len()
	add("y", "", "Y")
	add("x", "", "X")
	if got := string(f.AppendSorted([]byte("["), 0, mark)); got != "[1,2,3" {
		t.Errorf("first range = %s", got)
	}
	if got := string(f.AppendSorted(nil, mark, f.Len())); got != "X,Y" {
		t.Errorf("second range = %s", got)
	}
	if got := f.AppendSorted(nil, mark, mark); len(got) != 0 {
		t.Errorf("empty range = %s", got)
	}
	if got := string(f.AppendArray(nil)); got != "[1,2,3,X,Y]" {
		t.Errorf("array = %s", got)
	}
	f.Reset()
	if f.Len() != 0 || len(f.Buf) != 0 {
		t.Errorf("after Reset: %d elements, %d bytes", f.Len(), len(f.Buf))
	}
	if got := string(f.AppendArray(nil)); got != "null" {
		t.Errorf("empty array = %s", got)
	}
}
