package httpapi

// Fuzz coverage for the SSE resume-token parser: arbitrary Last-Event-ID
// headers and lastEventId query strings must parse, reject, or fall
// through — never panic, and never return ok with a mangled value.

import (
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
)

func FuzzLastEventID(f *testing.F) {
	f.Add("", "")
	f.Add("0", "")
	f.Add("18446744073709551615", "") // MaxUint64
	f.Add("18446744073709551616", "") // MaxUint64+1: must error
	f.Add("-1", "")
	f.Add("7extra", "")
	f.Add("", "42")
	f.Add("12", "34") // header wins over query

	f.Fuzz(func(t *testing.T, header, query string) {
		target := "/v1/events:stream"
		if query != "" {
			target += "?lastEventId=" + url.QueryEscape(query)
		}
		r := httptest.NewRequest("GET", target, nil)
		if header != "" {
			r.Header.Set("Last-Event-ID", header)
		}
		n, ok, err := lastEventID(r)
		raw := header
		if raw == "" {
			raw = query
		}
		switch {
		case err != nil:
			if raw == "" {
				t.Fatal("error for absent token")
			}
			if ok {
				t.Fatal("ok=true alongside an error")
			}
		case !ok:
			if raw != "" {
				t.Fatalf("token %q silently dropped (no error, not ok)", raw)
			}
			if n != 0 {
				t.Fatalf("ok=false with non-zero value %d", n)
			}
		default:
			// Accepted: the value must round-trip to what ParseUint accepts.
			want, perr := strconv.ParseUint(raw, 10, 64)
			if perr != nil || want != n {
				t.Fatalf("accepted %q as %d, want %v (%v)", raw, n, want, perr)
			}
		}
	})
}
