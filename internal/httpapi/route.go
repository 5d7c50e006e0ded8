package httpapi

import (
	"net/http"
	"slices"
	"strings"
)

// The route table (Server.table) is the one answer to "which endpoint is
// this request?". Each row is a method, a pattern and the endpoint that
// serves it. A pattern is '/'-separated segments, each one of:
//
//	literal       matches itself ("v1", "exams:assemble")
//	{id}          any non-empty segment, colons included
//	{id}:verb     a segment ending in ":verb" after a non-empty ID
//	{id}:{verb}   a segment with a colon after a non-empty ID; the
//	              endpoint gets the verb (a resource's unknown-verb row)
//	{file...}     the non-empty rest of the path (last segment only)
//
// Patterns are tried in table order and the first that fits the path
// decides the endpoint; the rows sharing that pattern form its method set.
// A method outside the set is a typed 405 listing the set in Allow, and a
// path no pattern fits is a typed 404.

// endpoint serves one row of the table. id is what the pattern captured:
// the {id} (of any form), the verb of an {id}:{verb} row, or the {file...}
// rest; "" for a pattern of literals only.
type endpoint func(w http.ResponseWriter, r *http.Request, id string)

// row is one entry of the route table.
type row struct {
	method, pattern string
	serve           endpoint
}

// unmatchedRoute is the metrics label of requests no row served: paths no
// pattern fits (404) and methods outside a pattern's set (405).
const unmatchedRoute = "unmatched"

type segKind uint8

const (
	segLiteral segKind = iota
	segID
	segIDVerb
	segIDAnyVerb
	segRest
)

// segment is one parsed pattern segment; text is the literal, or the
// ":verb" suffix of an {id}:verb segment.
type segment struct {
	kind segKind
	text string
}

// route is one distinct pattern of the table with every row that shares
// it: each row's method, endpoint and stats cell at the same index. The
// pattern is kept as its leading literal text (prefix) and the segments
// after it, so most paths are rejected by one prefix comparison.
type route struct {
	pattern    string
	prefix     string
	segs       []segment
	methods    []string
	serve      []endpoint
	stats      []*routeStats
	notAllowed endpoint
}

// parsePattern splits a table pattern into its literal prefix — the whole
// pattern when it has no placeholder, else everything up to and including
// the '/' before the first one — and the segments after it. Patterns are
// constants of the table, so a malformed one is a programming error.
func parsePattern(pattern string) (prefix string, segs []segment) {
	i := strings.IndexByte(pattern, '{')
	if i < 0 {
		return pattern, nil
	}
	prefix = pattern[:i]
	if !strings.HasSuffix(prefix, "/") {
		panic("httpapi: placeholder inside a segment of route " + pattern)
	}
	parts := strings.Split(pattern[i:], "/")
	for j, p := range parts {
		sg := segment{kind: segLiteral, text: p}
		switch {
		case p == "{id}":
			sg.kind = segID
		case p == "{id}:{verb}":
			sg.kind = segIDAnyVerb
		case strings.HasPrefix(p, "{id}:"):
			sg = segment{kind: segIDVerb, text: p[len("{id}"):]}
		case p == "{file...}" && j == len(parts)-1:
			sg.kind = segRest
		case strings.ContainsAny(p, "{}"):
			panic("httpapi: unknown placeholder " + p + " in route " + pattern)
		}
		segs = append(segs, sg)
	}
	return prefix, segs
}

// cutSegment splits the next segment off a path whose leading '/' is
// already consumed; more reports whether a '/' followed it.
//
//assess:hotpath
func cutSegment(path string) (seg, rest string, more bool) {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i], path[i+1:], true
	}
	return path, "", false
}

// match reports whether path fits the route's pattern, returning what the
// pattern captured.
//
//assess:hotpath
func (rt *route) match(path string) (id string, ok bool) {
	rest, ok := strings.CutPrefix(path, rt.prefix)
	if !ok || rt.segs == nil {
		return "", ok && rest == ""
	}
	more := true
	for _, sg := range rt.segs {
		if !more {
			return "", false
		}
		if sg.kind == segRest {
			return rest, rest != ""
		}
		var seg string
		seg, rest, more = cutSegment(rest)
		switch sg.kind {
		case segLiteral:
			if seg != sg.text {
				return "", false
			}
		case segID:
			if seg == "" {
				return "", false
			}
			id = seg
		case segIDVerb:
			if len(seg) <= len(sg.text) || !strings.HasSuffix(seg, sg.text) {
				return "", false
			}
			id = seg[:len(seg)-len(sg.text)]
		case segIDAnyVerb:
			i := strings.LastIndexByte(seg, ':')
			if i <= 0 {
				return "", false
			}
			id = seg[i+1:]
		}
	}
	return id, !more
}

// compile groups the table's rows by pattern, in table order, and
// registers each row's stats cell once, under "<METHOD> <pattern>"; every
// 404 and 405 shares the unmatchedRoute cell.
func (s *Server) compile(rows []row) {
	for _, rw := range rows {
		i := slices.IndexFunc(s.routes, func(rt route) bool { return rt.pattern == rw.pattern })
		if i < 0 {
			prefix, segs := parsePattern(rw.pattern)
			s.routes = append(s.routes, route{pattern: rw.pattern, prefix: prefix, segs: segs})
			i = len(s.routes) - 1
		}
		rt := &s.routes[i]
		rt.methods = append(rt.methods, rw.method)
		rt.serve = append(rt.serve, rw.serve)
		rt.stats = append(rt.stats, s.metrics.register(rw.method+" "+rw.pattern))
	}
	for i := range s.routes {
		allow := s.routes[i].methods
		s.routes[i].notAllowed = func(w http.ResponseWriter, _ *http.Request, _ string) {
			methodNotAllowed(w, allow...)
		}
	}
	s.unmatched = s.metrics.register(unmatchedRoute)
}

// find returns the first route whose pattern fits path and what it
// captured, or nil when none does.
//
//assess:hotpath
func (s *Server) find(path string) (*route, string) {
	for i := range s.routes {
		if id, ok := s.routes[i].match(path); ok {
			return &s.routes[i], id
		}
	}
	return nil, ""
}

// lookup returns the endpoint serving a request, what its pattern
// captured and the stats cell it is counted under: its row's, or the
// unmatched cell with the typed 404 or 405.
//
//assess:hotpath
func (s *Server) lookup(method, path string) (endpoint, string, *routeStats) {
	rt, id := s.find(path)
	if rt == nil {
		return notFoundRoute, "", s.unmatched
	}
	for i, m := range rt.methods {
		if m == method {
			return rt.serve[i], id, rt.stats[i]
		}
	}
	return rt.notAllowed, "", s.unmatched
}
