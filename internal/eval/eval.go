// Package eval evaluates SPARQL queries (in the subset defined by package
// sparql) against an in-memory triple store. It is the query engine behind
// each endpoint in the simulated federation, standing in for Jena Fuseki /
// Virtuoso in the paper's experimental setup.
package eval

import (
	"fmt"
	"maps"
	"sort"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// Binding is one solution mapping from variable names to terms. Variables
// absent from the map are unbound.
type Binding map[string]rdf.Term

// Evaluator executes queries against a single graph backend (the in-memory
// store or the disk-backed store). It is safe for concurrent use: all
// per-query state lives in a copy made by Query and Construct.
type Evaluator struct {
	st store.Graph

	// memo caches sub-select results for one Query or Construct call, so
	// FILTER (NOT) EXISTS { SELECT ... } blocks — the shape of Lusail's
	// locality check queries — evaluate their inner query once instead of
	// once per candidate row. It is nil on the evaluator New returns: the
	// keys are parsed-query pointers, which never recur across requests.
	memo *subSelectMemo
}

type subSelectMemo struct {
	res  map[*sparql.Query]*sparql.Results
	sets map[*sparql.Query]map[rdf.Term]bool
}

// New returns an evaluator over the given graph backend.
func New(st store.Graph) *Evaluator {
	return &Evaluator{st: st}
}

// scoped returns an evaluator carrying a sub-select memo for the duration
// of one call; a call nested in a scoped one (a sub-select) shares it.
func (e *Evaluator) scoped() *Evaluator {
	if e.memo != nil {
		return e
	}
	return &Evaluator{st: e.st, memo: &subSelectMemo{
		res:  map[*sparql.Query]*sparql.Results{},
		sets: map[*sparql.Query]map[rdf.Term]bool{},
	}}
}

// singleVarSubSelect matches a group of the form { SELECT ?v WHERE ... }
// with exactly one projected variable.
func singleVarSubSelect(g *sparql.GroupPattern) (*sparql.Query, string, bool) {
	if len(g.Elements) != 1 {
		return nil, "", false
	}
	ss, ok := g.Elements[0].(sparql.SubSelect)
	if !ok {
		return nil, "", false
	}
	vars := ss.Query.ProjectedVars()
	if len(vars) != 1 {
		return nil, "", false
	}
	return ss.Query, vars[0], true
}

// subSelectSet returns the set of bound values of v in the memoized
// sub-select results.
func (e *Evaluator) subSelectSet(q *sparql.Query, v string) (map[rdf.Term]bool, error) {
	if e.memo != nil {
		if set, ok := e.memo.sets[q]; ok {
			return set, nil
		}
	}
	res, err := e.subSelect(q)
	if err != nil {
		return nil, err
	}
	idx := res.VarIndex(v)
	set := make(map[rdf.Term]bool, len(res.Rows))
	if idx >= 0 {
		for _, row := range res.Rows {
			if !row[idx].IsZero() {
				set[row[idx]] = true
			}
		}
	}
	if e.memo != nil {
		e.memo.sets[q] = set
	}
	return set, nil
}

// subSelect evaluates a nested SELECT, memoized within the current call.
// Without a memo (FilterBinding's expression-only evaluation) it simply
// evaluates the query.
func (e *Evaluator) subSelect(q *sparql.Query) (*sparql.Results, error) {
	if e.memo != nil {
		if res, ok := e.memo.res[q]; ok {
			return res, nil
		}
	}
	res, err := e.Query(q)
	if err != nil {
		return nil, err
	}
	if e.memo != nil {
		e.memo.res[q] = res
	}
	return res, nil
}

// Store returns the underlying graph backend.
func (e *Evaluator) Store() store.Graph { return e.st }

// QueryString parses and evaluates a query.
func (e *Evaluator) QueryString(q string) (*sparql.Results, error) {
	parsed, err := sparql.Parse(q)
	if err != nil {
		return nil, err
	}
	return e.Query(parsed)
}

// Query evaluates a parsed query and returns its results. ASK queries yield
// a boolean result set.
//
// ASK queries and plain LIMIT queries over streamable groups (triple
// patterns plus filters only) are evaluated with an early-terminating
// depth-first search instead of full materialization; Lusail's LIMIT 1
// check queries depend on this stopping at the first witness.
func (e *Evaluator) Query(q *sparql.Query) (*sparql.Results, error) {
	if q.Form == sparql.ConstructForm {
		return nil, fmt.Errorf("eval: use Construct for CONSTRUCT queries")
	}
	e = e.scoped()
	if hint := limitHint(q); hint >= 0 && streamable(q.Where) {
		rows, err := e.evalStreamLimited(q.Where, hint)
		if err != nil {
			return nil, err
		}
		if q.Form == sparql.AskForm {
			return sparql.BoolResults(len(rows) > 0), nil
		}
		return e.finishSelect(q, rows)
	}
	rows, err := e.evalGroup(q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}
	if q.Form == sparql.AskForm {
		return sparql.BoolResults(len(rows) > 0), nil
	}
	return e.finishSelect(q, rows)
}

// limitHint returns the number of solutions after which evaluation may
// stop, or -1 when every solution is needed.
func limitHint(q *sparql.Query) int {
	if q.Form == sparql.AskForm {
		return 1
	}
	if q.Limit >= 0 && !q.Distinct && len(q.OrderBy) == 0 && !q.HasAggregates() &&
		len(q.GroupBy) == 0 && q.Offset == 0 {
		return q.Limit
	}
	return -1
}

// streamable reports whether the group consists solely of triple patterns
// and filters, so depth-first enumeration with leaf-level filtering is
// equivalent to full evaluation.
func streamable(g *sparql.GroupPattern) bool {
	for _, el := range g.Elements {
		switch el.(type) {
		case sparql.TriplePattern, sparql.Filter:
		default:
			return false
		}
	}
	return true
}

// evalStreamLimited enumerates solutions depth-first, applying filters at
// each complete assignment, and stops once limit rows are produced.
func (e *Evaluator) evalStreamLimited(g *sparql.GroupPattern, limit int) ([]Binding, error) {
	if limit == 0 {
		return nil, nil
	}
	var filters []sparql.Expr
	for _, el := range g.Elements {
		if f, ok := el.(sparql.Filter); ok {
			filters = append(filters, f.Expr)
		}
	}
	var out []Binding
	e.stream(orderBGP(g.TriplePatterns(), nil, e.st), Binding{}, func(b Binding) bool {
		for _, f := range filters {
			if ok, err := evalEBV(e, f, b); err != nil || !ok {
				return true // a false or erroring filter removes the row; keep searching
			}
		}
		out = append(out, b)
		return len(out) < limit
	})
	return out, nil
}

// stream extends the binding one pattern at a time in the given join
// order. emit returns false to stop the whole enumeration.
func (e *Evaluator) stream(order []sparql.TriplePattern, b Binding, emit func(Binding) bool) bool {
	if len(order) == 0 {
		return emit(b)
	}
	tp := order[0]
	cont := true
	e.st.Match(resolve(tp.S, b), resolve(tp.P, b), resolve(tp.O, b), func(t rdf.Triple) bool {
		if nb := extendBinding(b, tp, t); nb != nil {
			cont = e.stream(order[1:], nb, emit)
		}
		return cont
	})
	return cont
}

// finishSelect applies aggregation, projection, DISTINCT, ORDER BY, and
// LIMIT/OFFSET to the raw solution rows.
func (e *Evaluator) finishSelect(q *sparql.Query, rows []Binding) (*sparql.Results, error) {
	if len(q.GroupBy) > 0 {
		return GroupAggregate(q, rows)
	}
	if q.HasAggregates() {
		return aggregate(q, rows)
	}
	vars := q.ProjectedVars()
	res := sparql.NewResults(vars)
	res.Rows = make([][]rdf.Term, 0, len(rows))
	for _, b := range rows {
		row := make([]rdf.Term, len(vars))
		for i, v := range vars {
			row[i] = b[v] // zero Term if unbound
		}
		res.Rows = append(res.Rows, row)
	}
	if len(q.OrderBy) > 0 {
		orderRows(res, q.OrderBy)
	}
	if q.Distinct {
		res.Rows = dedupeRows(res.Rows)
	}
	applyLimitOffset(res, q.Limit, q.Offset)
	return res, nil
}

func orderRows(res *sparql.Results, conds []sparql.OrderCond) {
	idx := make([]int, 0, len(conds))
	desc := make([]bool, 0, len(conds))
	for _, c := range conds {
		if i := res.VarIndex(c.Var); i >= 0 {
			idx = append(idx, i)
			desc = append(desc, c.Desc)
		}
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for k, i := range idx {
			c := res.Rows[a][i].Compare(res.Rows[b][i])
			if c == 0 {
				continue
			}
			if desc[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

func dedupeRows(rows [][]rdf.Term) [][]rdf.Term {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, row := range rows {
		key := rowKey(row)
		if !seen[key] {
			seen[key] = true
			out = append(out, row)
		}
	}
	return out
}

func rowKey(row []rdf.Term) string {
	var b []byte
	for _, t := range row {
		b = append(b, t.String()...)
		b = append(b, 0)
	}
	return string(b)
}

func applyLimitOffset(res *sparql.Results, limit, offset int) {
	if offset > 0 {
		if offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[offset:]
		}
	}
	if limit >= 0 && limit < len(res.Rows) {
		res.Rows = res.Rows[:limit]
	}
}

func aggregate(q *sparql.Query, rows []Binding) (*sparql.Results, error) {
	vars := make([]string, len(q.Projection))
	out := make([]rdf.Term, len(q.Projection))
	for i, p := range q.Projection {
		vars[i] = p.Var
		if p.Agg == nil {
			return nil, fmt.Errorf("eval: mixing plain variables and aggregates without GROUP BY is unsupported")
		}
		v, err := evalAggregate(p.Agg, rows)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	res := sparql.NewResults(vars)
	res.Rows = [][]rdf.Term{out}
	return res, nil
}

// GroupAggregate implements GROUP BY: rows are partitioned by the grouping
// variables and each projection is either a grouping variable or an
// aggregate over the partition. It is exported for the federated engines,
// which apply grouping to the joined global relation.
func GroupAggregate(q *sparql.Query, rows []Binding) (*sparql.Results, error) {
	grouped := map[string][]Binding{}
	var order []string
	for _, b := range rows {
		key := groupKey(q.GroupBy, b)
		if _, ok := grouped[key]; !ok {
			order = append(order, key)
		}
		grouped[key] = append(grouped[key], b)
	}
	groupVars := map[string]bool{}
	for _, v := range q.GroupBy {
		groupVars[v] = true
	}
	vars := make([]string, len(q.Projection))
	for i, p := range q.Projection {
		vars[i] = p.Var
		if p.Agg == nil && !groupVars[p.Var] {
			return nil, fmt.Errorf("eval: projected variable ?%s is neither grouped nor aggregated", p.Var)
		}
	}
	if len(vars) == 0 {
		// SELECT * with GROUP BY projects the grouping variables.
		vars = append([]string(nil), q.GroupBy...)
	}
	res := sparql.NewResults(vars)
	for _, key := range order {
		group := grouped[key]
		row := make([]rdf.Term, len(vars))
		for i, v := range vars {
			var p *sparql.Projection
			if i < len(q.Projection) {
				p = &q.Projection[i]
			}
			if p != nil && p.Agg != nil {
				val, err := evalAggregate(p.Agg, group)
				if err != nil {
					return nil, err
				}
				row[i] = val
				continue
			}
			row[i] = group[0][v] // constant within the group
		}
		res.Rows = append(res.Rows, row)
	}
	if len(q.OrderBy) > 0 {
		orderRows(res, q.OrderBy)
	}
	applyLimitOffset(res, q.Limit, q.Offset)
	return res, nil
}

func groupKey(vars []string, b Binding) string {
	var buf []byte
	for _, v := range vars {
		t := b[v]
		buf = append(buf, t.String()...)
		buf = append(buf, 0)
	}
	return string(buf)
}

func evalAggregate(a *sparql.Aggregate, rows []Binding) (rdf.Term, error) {
	switch a.Func {
	case "COUNT":
		if a.Var == "" {
			return rdf.NewInteger(int64(len(rows))), nil
		}
		if a.Distinct {
			seen := map[rdf.Term]bool{}
			for _, b := range rows {
				if t, ok := b[a.Var]; ok {
					seen[t] = true
				}
			}
			return rdf.NewInteger(int64(len(seen))), nil
		}
		n := 0
		for _, b := range rows {
			if _, ok := b[a.Var]; ok {
				n++
			}
		}
		return rdf.NewInteger(int64(n)), nil
	case "SUM", "AVG", "MIN", "MAX":
		var vals []float64
		for _, b := range rows {
			if t, ok := b[a.Var]; ok {
				if f, ok := t.Numeric(); ok {
					vals = append(vals, f)
				}
			}
		}
		if len(vals) == 0 {
			return rdf.NewInteger(0), nil
		}
		agg := vals[0]
		for _, v := range vals[1:] {
			switch a.Func {
			case "SUM", "AVG":
				agg += v
			case "MIN":
				if v < agg {
					agg = v
				}
			case "MAX":
				if v > agg {
					agg = v
				}
			}
		}
		if a.Func == "AVG" {
			agg /= float64(len(vals))
		}
		return rdf.NewDouble(agg), nil
	}
	return rdf.Term{}, fmt.Errorf("eval: unsupported aggregate %s", a.Func)
}

// evalGroup evaluates a group graph pattern seeded with the given solutions.
// Filters are collected and applied at the end of the group, per SPARQL
// scoping rules.
func (e *Evaluator) evalGroup(g *sparql.GroupPattern, input []Binding) ([]Binding, error) {
	rows := input
	// Hoist VALUES blocks to the front: joining the inline data first seeds
	// the basic graph pattern with bound variables, so bound subqueries
	// (Lusail's and FedX's VALUES-based bound joins) evaluate with index
	// lookups instead of scanning and post-filtering. Join is commutative,
	// so this is semantics-preserving.
	for _, el := range g.Elements {
		if d, ok := el.(sparql.InlineData); ok {
			rows = joinWithValues(rows, d)
		}
	}
	var filters []sparql.Expr
	var bgp []sparql.TriplePattern

	flushBGP := func() {
		if len(bgp) > 0 {
			rows = e.evalBGP(bgp, rows)
			bgp = nil
		}
	}

	for _, el := range g.Elements {
		switch el := el.(type) {
		case sparql.TriplePattern:
			bgp = append(bgp, el)
		case sparql.Filter:
			filters = append(filters, el.Expr)
		case sparql.Optional:
			flushBGP()
			next := make([]Binding, 0, len(rows))
			for _, b := range rows {
				ext, err := e.evalGroup(el.Group, []Binding{b})
				if err != nil {
					return nil, err
				}
				if len(ext) == 0 {
					next = append(next, b)
				} else {
					next = append(next, ext...)
				}
			}
			rows = next
		case sparql.Union:
			flushBGP()
			var next []Binding
			for _, br := range el.Branches {
				out, err := e.evalGroup(br, rows)
				if err != nil {
					return nil, err
				}
				next = append(next, out...)
			}
			rows = next
		case sparql.SubSelect:
			flushBGP()
			sub, err := e.subSelect(el.Query)
			if err != nil {
				return nil, err
			}
			rows = joinWithResults(rows, sub)
		case sparql.InlineData:
			// Already joined in the hoisting pass above.
		case sparql.Bind:
			flushBGP()
			for i, b := range rows {
				if v, err := evalExpr(e, el.Expr, b); err == nil && !v.IsZero() {
					nb := cloneBinding(b)
					nb[el.Var] = v
					rows[i] = nb
				}
			}
		default:
			return nil, fmt.Errorf("eval: unsupported group element %T", el)
		}
		if len(rows) == 0 && len(bgp) == 0 {
			// Short-circuit: no solutions can come back (filters can only
			// remove rows).
			break
		}
	}
	flushBGP()
	for _, f := range filters {
		kept := rows[:0]
		for _, b := range rows {
			ok, err := evalEBV(e, f, b)
			if err == nil && ok {
				kept = append(kept, b)
			}
		}
		rows = kept
	}
	return rows, nil
}

// evalBGP evaluates a basic graph pattern by joining its triple patterns,
// in orderBGP's order, into the current solutions.
func (e *Evaluator) evalBGP(patterns []sparql.TriplePattern, rows []Binding) []Binding {
	if len(rows) == 0 {
		return nil
	}
	// A variable bound in any seed row counts as bound for ordering (a
	// VALUES block with UNDEF cells, a UNION or OPTIONAL before the BGP);
	// correctness does not depend on this, only efficiency.
	bound := map[string]bool{}
	for _, r := range rows {
		for v := range r {
			bound[v] = true
		}
	}
	for _, tp := range orderBGP(patterns, bound, e.st) {
		if rows = e.joinPattern(tp, rows); len(rows) == 0 {
			return nil
		}
	}
	return rows
}

// orderBGP returns the order in which the evaluator joins a BGP's patterns
// into solutions that already bind the variables in bound. Both the
// materializing path (evalBGP) and the depth-first LIMIT/ASK path (stream)
// use it, once per BGP. At each step it takes, of the patterns left, the
// first by:
//
//  1. connectivity: a pattern sharing a bound variable, or with no unbound
//     variable at all, before one that shares none, since joining that
//     would cross every partial row with all of its matches;
//  2. more bound positions (constants and bound variables);
//  3. fewer triples with its predicate, by Graph.PredicateCount, so both
//     backends order identically on identical data (a variable predicate
//     counts as the whole graph);
//  4. textual order.
//
// Join order changes neither the solutions nor their multiplicities, only
// the Match calls and partial rows on the way to them.
func orderBGP(patterns []sparql.TriplePattern, bound map[string]bool, st store.Graph) []sparql.TriplePattern {
	bound = maps.Clone(bound)
	if bound == nil {
		bound = map[string]bool{}
	}
	cards := make([]int, len(patterns))
	for i, tp := range patterns {
		if tp.P.IsVar() {
			cards[i] = st.Len()
		} else {
			cards[i] = st.PredicateCount(tp.P.Term)
		}
	}
	left := make([]int, len(patterns))
	for i := range left {
		left[i] = i
	}
	order := make([]sparql.TriplePattern, 0, len(patterns))
	for len(left) > 0 {
		best := 0
		bestRank := rankPattern(patterns[left[0]], bound, cards[left[0]])
		for k := 1; k < len(left); k++ {
			if r := rankPattern(patterns[left[k]], bound, cards[left[k]]); r.before(bestRank) {
				best, bestRank = k, r
			}
		}
		tp := patterns[left[best]]
		left = append(left[:best], left[best+1:]...)
		order = append(order, tp)
		for _, v := range tp.Vars() {
			bound[v] = true
		}
	}
	return order
}

// patternRank is one pattern's standing in orderBGP's choice.
type patternRank struct {
	connected bool
	boundPos  int
	card      int
}

func rankPattern(tp sparql.TriplePattern, bound map[string]bool, card int) patternRank {
	r := patternRank{card: card}
	shared, free := false, false
	for _, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
		switch {
		case !pt.IsVar():
			r.boundPos++
		case bound[pt.Var]:
			r.boundPos++
			shared = true
		default:
			free = true
		}
	}
	r.connected = shared || !free
	return r
}

// before reports whether r ranks strictly ahead of o; ties keep the
// earlier pattern.
func (r patternRank) before(o patternRank) bool {
	if r.connected != o.connected {
		return r.connected
	}
	if r.boundPos != o.boundPos {
		return r.boundPos > o.boundPos
	}
	return r.card < o.card
}

// joinPattern extends every solution with matches of the pattern.
func (e *Evaluator) joinPattern(tp sparql.TriplePattern, rows []Binding) []Binding {
	var out []Binding
	for _, b := range rows {
		s := resolve(tp.S, b)
		p := resolve(tp.P, b)
		o := resolve(tp.O, b)
		e.st.Match(s, p, o, func(t rdf.Triple) bool {
			nb := extendBinding(b, tp, t)
			if nb != nil {
				out = append(out, nb)
			}
			return true
		})
	}
	return out
}

// resolve turns a pattern position into a concrete match term: nil for an
// unbound variable (wildcard), the bound value for a bound variable, or the
// constant.
func resolve(pt sparql.PatternTerm, b Binding) *rdf.Term {
	if pt.IsVar() {
		if t, ok := b[pt.Var]; ok {
			return &t
		}
		return nil
	}
	t := pt.Term
	return &t
}

// extendBinding binds the pattern's unbound variables from the matched
// triple. It returns nil when the same variable would need two different
// values (e.g. pattern ?x p ?x matching a triple with s != o).
func extendBinding(b Binding, tp sparql.TriplePattern, t rdf.Triple) Binding {
	nb := cloneBinding(b)
	for _, pair := range [3]struct {
		pt  sparql.PatternTerm
		val rdf.Term
	}{{tp.S, t.S}, {tp.P, t.P}, {tp.O, t.O}} {
		if !pair.pt.IsVar() {
			continue
		}
		if existing, ok := nb[pair.pt.Var]; ok {
			if existing != pair.val {
				return nil
			}
			continue
		}
		nb[pair.pt.Var] = pair.val
	}
	return nb
}

func cloneBinding(b Binding) Binding {
	nb := make(Binding, len(b)+2)
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

// joinWithResults joins current solutions with a materialized result set on
// their shared variables (used for sub-selects).
func joinWithResults(rows []Binding, sub *sparql.Results) []Binding {
	var out []Binding
	for _, b := range rows {
		for i := range sub.Rows {
			sb := sub.Binding(i)
			if nb := mergeCompatible(b, sb); nb != nil {
				out = append(out, nb)
			}
		}
	}
	return out
}

// joinWithValues joins current solutions with a VALUES block; UNDEF cells
// impose no constraint.
func joinWithValues(rows []Binding, d sparql.InlineData) []Binding {
	var out []Binding
	for _, b := range rows {
		for _, vr := range d.Rows {
			nb := cloneBinding(b)
			ok := true
			for i, v := range d.Vars {
				if vr[i].IsZero() {
					continue
				}
				if existing, bound := nb[v]; bound {
					if existing != vr[i] {
						ok = false
						break
					}
					continue
				}
				nb[v] = vr[i]
			}
			if ok {
				out = append(out, nb)
			}
		}
	}
	return out
}

// mergeCompatible merges two bindings when they agree on shared variables,
// returning nil otherwise.
func mergeCompatible(a, b Binding) Binding {
	nb := cloneBinding(a)
	for k, v := range b {
		if existing, ok := nb[k]; ok {
			if existing != v {
				return nil
			}
			continue
		}
		nb[k] = v
	}
	return nb
}
