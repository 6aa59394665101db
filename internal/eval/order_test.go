package eval

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"lusail/internal/diskstore"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// countingGraph wraps a store.Graph and counts the Match calls the
// evaluator makes and the triples those calls visit: the evaluator's
// work, independent of the machine's speed.
type countingGraph struct {
	store.Graph
	matches, visited int
}

func (g *countingGraph) Match(s, p, o *rdf.Term, fn func(rdf.Triple) bool) {
	g.matches++
	g.Graph.Match(s, p, o, func(t rdf.Triple) bool {
		g.visited++
		return fn(t)
	})
}

// refElem is one element of a generated group: a triple pattern, a UNION
// of two pattern lists, or an OPTIONAL pattern list.
type refElem struct {
	tp       *sparql.TriplePattern
	union    [2][]sparql.TriplePattern
	optional []sparql.TriplePattern
}

// refQuery is a generated group graph pattern: an optional VALUES seed,
// then elements in textual order.
type refQuery struct {
	values *sparql.InlineData
	elems  []refElem
}

// patterns lists every triple pattern of the group, nested ones included.
func (q refQuery) patterns() []sparql.TriplePattern {
	var out []sparql.TriplePattern
	for _, el := range q.elems {
		switch {
		case el.tp != nil:
			out = append(out, *el.tp)
		case el.optional != nil:
			out = append(out, el.optional...)
		default:
			out = append(out, el.union[0]...)
			out = append(out, el.union[1]...)
		}
	}
	return out
}

func (q refQuery) vars() []string {
	seen := map[string]bool{}
	if q.values != nil {
		for _, v := range q.values.Vars {
			seen[v] = true
		}
	}
	for _, tp := range q.patterns() {
		for _, v := range tp.Vars() {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// tally counts the features of a checked query that has answers, so the
// test can require that the generator exercised each of them.
func tally(covered map[string]int, q refQuery, text string, rows int) {
	if rows == 0 {
		covered["empty"]++
		return
	}
	covered["non-empty"]++
	for _, f := range []string{"UNDEF", "OPTIONAL", "UNION", "?wv"} {
		if strings.Contains(text, f) {
			covered[f]++
		}
	}
	for _, tp := range q.patterns() {
		if len(tp.Vars()) == 0 {
			covered["constant-only"]++
		}
		if tp.S.IsVar() && tp.S.Var == tp.O.Var {
			covered["?x p ?x"]++
		}
	}
}

func renderPatterns(b *strings.Builder, tps []sparql.TriplePattern) {
	for _, tp := range tps {
		for _, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar() {
				b.WriteString("?" + pt.Var + " ")
			} else {
				b.WriteString(pt.Term.String() + " ")
			}
		}
		b.WriteString(". ")
	}
}

// where renders the group as SPARQL text.
func (q refQuery) where() string {
	var b strings.Builder
	b.WriteString("{ ")
	if d := q.values; d != nil {
		b.WriteString("VALUES (?" + strings.Join(d.Vars, " ?") + ") { ")
		for _, row := range d.Rows {
			b.WriteString("(")
			for _, t := range row {
				if t.IsZero() {
					b.WriteString("UNDEF ")
				} else {
					b.WriteString(t.String() + " ")
				}
			}
			b.WriteString(") ")
		}
		b.WriteString("} ")
	}
	for _, el := range q.elems {
		switch {
		case el.tp != nil:
			renderPatterns(&b, []sparql.TriplePattern{*el.tp})
		case el.optional != nil:
			b.WriteString("OPTIONAL { ")
			renderPatterns(&b, el.optional)
			b.WriteString("} ")
		default:
			b.WriteString("{ ")
			renderPatterns(&b, el.union[0])
			b.WriteString("} UNION { ")
			renderPatterns(&b, el.union[1])
			b.WriteString("} ")
		}
	}
	b.WriteString("}")
	return b.String()
}

// errRefTooLarge stops the reference when an intermediate result outgrows
// what a unit test should enumerate.
var errRefTooLarge = fmt.Errorf("reference result too large")

const refMaxRows = 20000

// refEval is the naive reference: VALUES first, then every triple pattern
// joined by a nested loop over all triples, in textual order, with UNION
// branches and OPTIONAL groups evaluated per input row the same way. It
// shares no code with the evaluator's join path.
func refEval(q refQuery, all []rdf.Triple) ([]Binding, error) {
	rows := []Binding{{}}
	if d := q.values; d != nil {
		rows = nil
		for _, vr := range d.Rows {
			b := Binding{}
			for i, v := range d.Vars {
				if !vr[i].IsZero() {
					b[v] = vr[i]
				}
			}
			rows = append(rows, b)
		}
	}
	var err error
	for _, el := range q.elems {
		switch {
		case el.tp != nil:
			rows, err = refJoin(rows, []sparql.TriplePattern{*el.tp}, all)
		case el.optional != nil:
			var next []Binding
			for _, b := range rows {
				ext, err := refJoin([]Binding{b}, el.optional, all)
				if err != nil {
					return nil, err
				}
				if len(ext) == 0 {
					ext = []Binding{b}
				}
				next = append(next, ext...)
			}
			rows = next
		default:
			var next []Binding
			for _, br := range el.union {
				out, err := refJoin(rows, br, all)
				if err != nil {
					return nil, err
				}
				next = append(next, out...)
			}
			rows = next
		}
		if err != nil {
			return nil, err
		}
		if len(rows) > refMaxRows {
			return nil, errRefTooLarge
		}
	}
	return rows, nil
}

func refJoin(rows []Binding, tps []sparql.TriplePattern, all []rdf.Triple) ([]Binding, error) {
	for _, tp := range tps {
		var next []Binding
		for _, b := range rows {
			for _, tri := range all {
				if nb := tryExtend(b, tp, tri); nb != nil {
					next = append(next, nb)
				}
			}
		}
		if len(next) > refMaxRows {
			return nil, errRefTooLarge
		}
		rows = next
	}
	return rows, nil
}

func selectText(vars []string) string {
	if len(vars) == 0 {
		return "SELECT *"
	}
	return "SELECT ?" + strings.Join(vars, " ?")
}

// rowKeys renders solutions over vars as sortable keys: a multiset.
func rowKeys(rows []Binding, vars []string) []string {
	out := make([]string, len(rows))
	for i, b := range rows {
		row := make([]rdf.Term, len(vars))
		for j, v := range vars {
			row[j] = b[v]
		}
		out[i] = rowKey(row)
	}
	sort.Strings(out)
	return out
}

func resultKeys(res *sparql.Results) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = rowKey(row)
	}
	sort.Strings(out)
	return out
}

// isSubMultiset reports whether every key of sub occurs in full at least as
// often; both are sorted.
func isSubMultiset(sub, full []string) bool {
	count := map[string]int{}
	for _, k := range full {
		count[k]++
	}
	for _, k := range sub {
		if count[k] == 0 {
			return false
		}
		count[k]--
	}
	return true
}

// randomGraph is a small graph dense enough that random patterns join:
// 8 nodes, 4 predicates, 2 literals.
func randomGraph(r *rand.Rand) []rdf.Triple {
	node := func() rdf.Term { return iri(fmt.Sprintf("n%d", r.Intn(8))) }
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	for len(out) < 40 {
		t := rdf.Triple{S: node(), P: iri(fmt.Sprintf("p%d", r.Intn(4))), O: node()}
		if r.Intn(8) == 0 {
			t.O = rdf.NewLiteral(fmt.Sprintf("lit%d", r.Intn(2)))
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// queryGen draws random groups over a graph. The features the ordering
// must survive are each forced in a share of the queries.
type queryGen struct {
	r   *rand.Rand
	all []rdf.Triple
}

func (g queryGen) variable() sparql.PatternTerm {
	return sparql.PatternTerm{Var: fmt.Sprintf("v%d", g.r.Intn(5))}
}

func (g queryGen) pattern() sparql.TriplePattern {
	r := g.r
	if r.Intn(10) == 0 {
		// Constant-only: an existing triple or, half the time, a
		// (likely) absent one.
		t := g.all[r.Intn(len(g.all))]
		if r.Intn(2) == 0 {
			t.O = iri(fmt.Sprintf("n%d", r.Intn(8)))
		}
		return sparql.TriplePattern{S: sparql.PatternTerm{Term: t.S}, P: sparql.PatternTerm{Term: t.P}, O: sparql.PatternTerm{Term: t.O}}
	}
	tp := sparql.TriplePattern{
		S: g.variable(),
		P: sparql.PatternTerm{Term: iri(fmt.Sprintf("p%d", r.Intn(4)))},
		O: g.variable(),
	}
	switch r.Intn(8) {
	case 0:
		tp.S = sparql.PatternTerm{Term: iri(fmt.Sprintf("n%d", r.Intn(8)))}
	case 1:
		tp.O = sparql.PatternTerm{Term: iri(fmt.Sprintf("n%d", r.Intn(8)))}
	case 2:
		tp.O = tp.S // repeated variable: ?x p ?x
	case 3:
		tp.P = g.variable()
	}
	return tp
}

func (g queryGen) patterns(n int) []sparql.TriplePattern {
	out := make([]sparql.TriplePattern, n)
	for i := range out {
		out[i] = g.pattern()
	}
	return out
}

// bgp draws a pure BGP of 2-5 patterns; in disconnected mode the second
// half uses variables the first half cannot share.
func (g queryGen) bgp(disconnected bool) []sparql.TriplePattern {
	tps := g.patterns(2 + g.r.Intn(4))
	if disconnected {
		for i := len(tps) / 2; i < len(tps); i++ {
			for _, pt := range []*sparql.PatternTerm{&tps[i].S, &tps[i].P, &tps[i].O} {
				if pt.IsVar() {
					pt.Var = "w" + pt.Var
				}
			}
		}
	}
	return tps
}

func (g queryGen) values() *sparql.InlineData {
	r := g.r
	d := &sparql.InlineData{Vars: []string{"v0", fmt.Sprintf("v%d", 1+r.Intn(4))}}
	for i := 0; i < 1+r.Intn(4); i++ {
		row := make([]rdf.Term, len(d.Vars))
		for j := range row {
			if r.Intn(3) > 0 { // else UNDEF
				row[j] = iri(fmt.Sprintf("n%d", r.Intn(8)))
			}
		}
		d.Rows = append(d.Rows, row)
	}
	return d
}

// group draws a group with a VALUES seed, a UNION or an OPTIONAL before its
// last BGP, so the BGP's seed rows bind some variables in some rows only.
func (g queryGen) group() refQuery {
	r := g.r
	var q refQuery
	if r.Intn(2) == 0 {
		q.values = g.values()
	}
	for _, tp := range g.patterns(r.Intn(2)) {
		q.elems = append(q.elems, refElem{tp: &tp})
	}
	switch r.Intn(3) {
	case 0:
		q.elems = append(q.elems, refElem{union: [2][]sparql.TriplePattern{g.patterns(1 + r.Intn(2)), g.patterns(1 + r.Intn(2))}})
	case 1:
		q.elems = append(q.elems, refElem{optional: g.patterns(1 + r.Intn(2))})
	}
	for _, tp := range g.bgp(r.Intn(3) == 0) {
		q.elems = append(q.elems, refElem{tp: &tp})
	}
	return q
}

// The evaluator's join order must not change any answer: on random
// groups over a random graph, on both backends, its row multisets equal a
// nested-loop join in textual order, and LIMIT/ASK answers are a
// sub-multiset of the right size. The benchmark's oracle also runs on this
// evaluator, so it cannot catch an ordering bug by itself.
func TestJoinOrderMatchesNestedLoopReference(t *testing.T) {
	covered := map[string]int{}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		all := randomGraph(r)
		path := filepath.Join(t.TempDir(), "g.lds")
		if err := diskstore.Build(path, all, diskstore.BuildOptions{DictBlockSize: 4, TripleBlockSize: 8}); err != nil {
			t.Fatal(err)
		}
		disk, err := diskstore.Open(path, diskstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { disk.Close() })
		backends := []struct {
			name string
			ev   *Evaluator
		}{{"memory", New(store.NewFromTriples(all))}, {"disk", New(disk)}}
		gen := queryGen{r: r, all: all}
		checked := 0
		for i := 0; i < 60; i++ {
			q := gen.group()
			want, err := refEval(q, all)
			if err == errRefTooLarge {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			checked++
			vars := q.vars()
			text := selectText(vars) + " WHERE " + q.where()
			tally(covered, q, text, len(want))
			for _, be := range backends {
				res, err := be.ev.QueryString(text)
				if err != nil {
					t.Fatalf("%s: %s: %v", be.name, text, err)
				}
				if got, w := resultKeys(res), rowKeys(want, vars); strings.Join(got, "\n") != strings.Join(w, "\n") {
					t.Fatalf("seed %d %s: %s\n got %d rows, reference %d", seed, be.name, text, len(got), len(w))
				}
			}
		}
		// Pure BGPs take the depth-first LIMIT/ASK path.
		for i := 0; i < 40; i++ {
			tps := gen.bgp(i%3 == 0)
			q := refQuery{}
			for _, tp := range tps {
				q.elems = append(q.elems, refElem{tp: &tp})
			}
			want, err := refEval(q, all)
			if err == errRefTooLarge {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			checked++
			vars := q.vars()
			full := rowKeys(want, vars)
			limit := 1 + r.Intn(5)
			text := fmt.Sprintf("%s WHERE %s LIMIT %d", selectText(vars), q.where(), limit)
			tally(covered, q, text, len(want))
			for _, be := range backends {
				res, err := be.ev.QueryString(text)
				if err != nil {
					t.Fatalf("%s: %s: %v", be.name, text, err)
				}
				got := resultKeys(res)
				if wantLen := min(limit, len(full)); len(got) != wantLen || !isSubMultiset(got, full) {
					t.Fatalf("seed %d %s: %s\n got %d rows (sub-multiset %v), want %d of %d",
						seed, be.name, text, len(got), isSubMultiset(got, full), wantLen, len(full))
				}
				ask, err := be.ev.QueryString("ASK " + q.where())
				if err != nil {
					t.Fatal(err)
				}
				if ask.Boolean != (len(full) > 0) {
					t.Fatalf("seed %d %s: ASK %s = %v, reference has %d rows", seed, be.name, q.where(), ask.Boolean, len(full))
				}
			}
		}
		if checked < 80 {
			t.Fatalf("seed %d: only %d of 100 queries small enough to check", seed, checked)
		}
	}
	for _, f := range []string{"empty", "non-empty", "UNDEF", "OPTIONAL", "UNION", "?wv", "constant-only", "?x p ?x"} {
		if covered[f] < 10 {
			t.Errorf("only %d checked queries with %q; coverage %v", covered[f], f, covered)
		}
	}
	t.Logf("coverage %v", covered)
}

// lubmShaped builds a small LUBM-like university graph: professors with a
// doctoral degree from one of 10 universities, heads of 10 departments, and
// more than 999 graduate students (so rdf:type and advisor both outnumber
// the old scorer's cap of 999), each with an advisor and two courses.
func lubmShaped() *store.Store {
	typ := rdf.NewIRI(rdf.RDFType)
	var ts []rdf.Triple
	for p := 0; p < 60; p++ {
		prof := iri(fmt.Sprintf("prof%d", p))
		ts = append(ts,
			rdf.Triple{S: prof, P: typ, O: iri("FullProfessor")},
			rdf.Triple{S: prof, P: iri("doctoralDegreeFrom"), O: iri(fmt.Sprintf("univ%d", p%10))})
		if p < 10 {
			ts = append(ts, rdf.Triple{S: prof, P: iri("headOf"), O: iri(fmt.Sprintf("dept%d", p))})
		}
	}
	for s := 0; s < 1200; s++ {
		stu := iri(fmt.Sprintf("grad%d", s))
		ts = append(ts,
			rdf.Triple{S: stu, P: typ, O: iri("GraduateStudent")},
			rdf.Triple{S: stu, P: iri("advisor"), O: iri(fmt.Sprintf("prof%d", s%60))},
			rdf.Triple{S: stu, P: iri("takesCourse"), O: iri(fmt.Sprintf("course%d", s%40))},
			rdf.Triple{S: stu, P: iri("takesCourse"), O: iri(fmt.Sprintf("course%d", (s+7)%40))})
	}
	return store.NewFromTriples(ts)
}

// A VALUES(?U)-seeded star in the shape of LUBM Q4's bound-join request
// must join advisor before the type pattern it ties with on bound
// positions: crossing every partial row with every graduate student costs
// more than 10x the Match calls and triples visited. The bounds are counts,
// exact for this data.
func TestValuesSeededStarJoinsConnectedFirst(t *testing.T) {
	st := lubmShaped()
	where := `{
		VALUES ?U { <http://ex/univ0> <http://ex/univ3> <http://ex/univ7> }
		?X <` + rdf.RDFType + `> <http://ex/GraduateStudent> .
		?X <http://ex/advisor> ?Y .
		?X <http://ex/takesCourse> ?C .
		?Y <http://ex/doctoralDegreeFrom> ?U .
	}`
	g := &countingGraph{Graph: st}
	res, err := New(g).QueryString("SELECT ?X ?Y ?U ?C WHERE " + where)
	if err != nil {
		t.Fatal(err)
	}
	// 3 universities x 6 professors x 20 students x 2 courses.
	if len(res.Rows) != 720 {
		t.Fatalf("rows = %d, want 720", len(res.Rows))
	}
	// Connected order: 3 doctoralDegreeFrom lookups, 18 advisor lookups,
	// 360 type checks and 360 takesCourse lookups (720 triples).
	const maxMatches, maxVisited = 741, 1458
	if g.matches > maxMatches || g.visited > maxVisited {
		t.Errorf("Match calls %d (bound %d), triples visited %d (bound %d)", g.matches, maxMatches, g.visited, maxVisited)
	}

	// The old tie-break: after doctoralDegreeFrom, rdf:type (listed first)
	// before advisor, then takesCourse. The nested-loop reference in that
	// order, through the same counting wrapper, must cost >10x the bounds.
	old := &countingGraph{Graph: st}
	ev := New(old)
	parsed := sparql.MustParse("SELECT * WHERE " + where)
	tps := parsed.Where.TriplePatterns()
	rows := joinWithValues([]Binding{{}}, parsed.Where.Elements[0].(sparql.InlineData))
	for _, tp := range []sparql.TriplePattern{tps[3], tps[0], tps[1], tps[2]} {
		rows = ev.joinPattern(tp, rows)
	}
	if len(rows) != 720 {
		t.Fatalf("old order rows = %d, want 720", len(rows))
	}
	if old.matches <= 10*maxMatches || old.visited <= 10*maxVisited {
		t.Errorf("old order: Match calls %d, triples visited %d; want > 10x (%d, %d)",
			old.matches, old.visited, 10*maxMatches, 10*maxVisited)
	}
}

// Sub-select results are memoized within one call only: a run of distinct
// check-query requests, each parsed anew as the endpoint does, leaves no
// memo state on the evaluator, while within each request the inner SELECT
// is still evaluated once rather than once per candidate row.
func TestSubSelectMemoScopedToCall(t *testing.T) {
	st := lubmShaped()
	g := &countingGraph{Graph: st}
	e := New(g)
	for i := 0; i < 300; i++ {
		q := fmt.Sprintf(`SELECT ?Y WHERE {
			?X <http://ex/advisor> ?Y .
			FILTER NOT EXISTS { SELECT ?Y WHERE { ?Y <http://ex/doctoralDegreeFrom> <http://ex/univ%d> } }
		}`, i%10)
		before := g.matches
		res, err := e.QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1080 {
			t.Fatalf("request %d: rows = %d, want 1080", i, len(res.Rows))
		}
		// One scan of advisor, one of doctoralDegreeFrom.
		if n := g.matches - before; n != 2 {
			t.Fatalf("request %d: %d Match calls, want 2 (sub-select memoized per call)", i, n)
		}
		if e.memo != nil {
			t.Fatalf("request %d left memo state on the evaluator", i)
		}
	}
}

// One evaluator serves concurrent requests (an endpoint's): each call's
// sub-select memo is its own, so check queries from several goroutines at
// once neither race nor see each other's results.
func TestEvaluatorConcurrentCheckQueries(t *testing.T) {
	e := New(lubmShaped())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := e.QueryString(fmt.Sprintf(`SELECT ?Y WHERE {
					?X <http://ex/advisor> ?Y .
					FILTER NOT EXISTS { SELECT ?Y WHERE { ?Y <http://ex/doctoralDegreeFrom> <http://ex/univ%d> } }
				}`, (w+i)%10))
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != 1080 {
					t.Errorf("worker %d request %d: rows = %d, want 1080", w, i, len(res.Rows))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Connectivity outranks both bound positions and predicate counts: with
// ?U bound, the rare headOf pattern (two constants, 10 triples) waits until
// ?H is bound, behind patterns sharing a variable with the rows so far.
func TestOrderBGPConnectedFirst(t *testing.T) {
	st := lubmShaped()
	q := sparql.MustParse(`SELECT * WHERE {
		?X <` + rdf.RDFType + `> <http://ex/GraduateStudent> .
		?H <http://ex/headOf> <http://ex/dept0> .
		?X <http://ex/advisor> ?H .
		?H <http://ex/doctoralDegreeFrom> ?U .
		<http://ex/prof0> <http://ex/doctoralDegreeFrom> <http://ex/univ0> .
	}`)
	tps := q.Where.TriplePatterns()
	check := func(bound map[string]bool, got []sparql.TriplePattern, want ...int) {
		t.Helper()
		for i, w := range want {
			if got[i] != tps[w] {
				t.Fatalf("bound %v: order[%d] = %v, want pattern %d (%v)", bound, i, got[i], w, tps[w])
			}
		}
	}
	// The constant-only pattern only filters, so it joins first; then the
	// chain out of ?U.
	bound := map[string]bool{"U": true}
	check(bound, orderBGP(tps, bound, st), 4, 3, 1, 2, 0)
	// Nothing bound: headOf starts (two bound positions, fewest triples)
	// and the rest follow by connectivity, not by count.
	check(nil, orderBGP(tps[:4], nil, st), 1, 3, 2, 0)
}

// The depth-first LIMIT/ASK path follows the planned order and stops at
// the first witness: one Match per pattern.
func TestStreamFollowsPlannedOrder(t *testing.T) {
	g := &countingGraph{Graph: lubmShaped()}
	res, err := New(g).QueryString(`ASK {
		?X <` + rdf.RDFType + `> <http://ex/GraduateStudent> .
		?X <http://ex/advisor> ?Y .
		?Y <http://ex/doctoralDegreeFrom> <http://ex/univ3> .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Boolean || g.matches != 3 || g.visited != 3 {
		t.Errorf("ASK = %v after %d Match calls visiting %d triples, want true after 3 and 3", res.Boolean, g.matches, g.visited)
	}
}
