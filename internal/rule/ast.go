// Package rule defines MRLs — Matching Rules with mL (Section II of the
// paper): matching dependencies extended with embedded ML predicates,
// constant predicates, and collective preconditions spanning any number of
// relations. It provides a text parser for a rule DSL, schema resolution,
// structural analysis (deep/collective classification, distinct variables)
// and the hypergraph acyclicity test of Theorem 3.
package rule

import (
	"fmt"
	"strings"

	"dcer/internal/relation"
)

// PredKind discriminates the predicate forms p of Section II.
type PredKind uint8

// Predicate kinds. Relation atoms R(t) are represented separately as
// variable bindings (Rule.Vars), matching the paper's tuple-relational
// presentation.
const (
	// PredConst is t.A = c.
	PredConst PredKind = iota
	// PredEq is t.A = s.B.
	PredEq
	// PredID is the id predicate t.id = s.id.
	PredID
	// PredML is an ML predicate M(t[Ā], s[B̄]).
	PredML
)

// String names the predicate kind.
func (k PredKind) String() string {
	switch k {
	case PredConst:
		return "const"
	case PredEq:
		return "eq"
	case PredID:
		return "id"
	case PredML:
		return "ml"
	}
	return fmt.Sprintf("PredKind(%d)", uint8(k))
}

// Var is a tuple variable bound by a relation atom R(t).
type Var struct {
	Name string // variable name as written in the rule, e.g. "tc"
	Rel  string // relation schema name, e.g. "Customers"

	// RelIdx is the relation's index in the database schema; filled by
	// Rule.Resolve.
	RelIdx int
}

// Pred is one precondition or consequence predicate.
type Pred struct {
	Kind PredKind

	// V1/A1 and V2/A2 address var.attr operands by position (indexes into
	// Rule.Vars and the variable's schema) after Resolve; the *Name fields
	// hold the surface syntax.
	V1, V2     int
	A1, A2     int
	V1Name     string
	V2Name     string
	A1Name     string
	A2Name     string
	Const      relation.Value
	ConstText  string // surface text of the constant, before typing
	Model      string // ML classifier name
	A1Vec      []int  // ML attribute vector of V1 (resolved)
	A2Vec      []int  // ML attribute vector of V2 (resolved)
	A1VecNames []string
	A2VecNames []string
}

// Rule is an MRL φ = X → l. Vars lists the tuple variables (the relation
// atoms of X); Body lists the remaining predicates of X; Head is l, which
// must be an id predicate or an ML predicate.
type Rule struct {
	Name string
	Vars []Var
	Body []Pred
	Head Pred

	resolved bool
}

// Resolved reports whether Resolve has succeeded on this rule.
func (r *Rule) Resolved() bool { return r.resolved }

// VarIndex returns the position of the named tuple variable, or -1.
func (r *Rule) VarIndex(name string) int {
	for i, v := range r.Vars {
		if v.Name == name {
			return i
		}
	}
	return -1
}

// Resolve binds the rule to a database schema: it fills relation indexes,
// attribute indexes, and types constants, and validates compatibility
// (same-typed operands of equality predicates, pairwise-compatible ML
// attribute vectors, head restricted to id/ML predicates).
func (r *Rule) Resolve(db *relation.Database) error {
	for i := range r.Vars {
		idx := db.SchemaIndex(r.Vars[i].Rel)
		if idx < 0 {
			return fmt.Errorf("rule %s: unknown relation %q", r.Name, r.Vars[i].Rel)
		}
		r.Vars[i].RelIdx = idx
	}
	for i := range r.Body {
		if err := r.resolvePred(db, &r.Body[i]); err != nil {
			return err
		}
	}
	if r.Head.Kind != PredID && r.Head.Kind != PredML {
		return fmt.Errorf("rule %s: head must be an id or ML predicate, got %s", r.Name, r.Head.Kind)
	}
	if err := r.resolvePred(db, &r.Head); err != nil {
		return err
	}
	r.resolved = true
	return nil
}

func (r *Rule) resolvePred(db *relation.Database, p *Pred) error {
	lookupVar := func(name string) (int, *relation.Schema, error) {
		vi := r.VarIndex(name)
		if vi < 0 {
			return -1, nil, fmt.Errorf("rule %s: unbound tuple variable %q", r.Name, name)
		}
		return vi, db.Schemas[r.Vars[vi].RelIdx], nil
	}
	lookupAttr := func(s *relation.Schema, attr string) (int, error) {
		// ".id" is the designated id attribute of the schema.
		if attr == "id" {
			return s.IDAttr, nil
		}
		ai := s.AttrIndex(attr)
		if ai < 0 {
			return -1, fmt.Errorf("rule %s: relation %s has no attribute %q", r.Name, s.Name, attr)
		}
		return ai, nil
	}
	switch p.Kind {
	case PredConst:
		vi, s, err := lookupVar(p.V1Name)
		if err != nil {
			return err
		}
		ai, err := lookupAttr(s, p.A1Name)
		if err != nil {
			return err
		}
		p.V1, p.A1 = vi, ai
		v, err := relation.ParseValue(p.ConstText, s.Attrs[ai].Type)
		if err != nil {
			return fmt.Errorf("rule %s: constant for %s.%s: %w", r.Name, s.Name, p.A1Name, err)
		}
		p.Const = v
	case PredEq, PredID:
		v1, s1, err := lookupVar(p.V1Name)
		if err != nil {
			return err
		}
		v2, s2, err := lookupVar(p.V2Name)
		if err != nil {
			return err
		}
		a1, err := lookupAttr(s1, p.A1Name)
		if err != nil {
			return err
		}
		a2, err := lookupAttr(s2, p.A2Name)
		if err != nil {
			return err
		}
		if s1.Attrs[a1].Type != s2.Attrs[a2].Type {
			return fmt.Errorf("rule %s: incompatible types %s.%s (%s) vs %s.%s (%s)",
				r.Name, s1.Name, p.A1Name, s1.Attrs[a1].Type, s2.Name, p.A2Name, s2.Attrs[a2].Type)
		}
		p.V1, p.A1, p.V2, p.A2 = v1, a1, v2, a2
	case PredML:
		v1, s1, err := lookupVar(p.V1Name)
		if err != nil {
			return err
		}
		v2, s2, err := lookupVar(p.V2Name)
		if err != nil {
			return err
		}
		if len(p.A1VecNames) != len(p.A2VecNames) {
			return fmt.Errorf("rule %s: ML predicate %s has mismatched attribute vectors", r.Name, p.Model)
		}
		p.V1, p.V2 = v1, v2
		p.A1Vec = p.A1Vec[:0]
		p.A2Vec = p.A2Vec[:0]
		for i := range p.A1VecNames {
			a1, err := lookupAttr(s1, p.A1VecNames[i])
			if err != nil {
				return err
			}
			a2, err := lookupAttr(s2, p.A2VecNames[i])
			if err != nil {
				return err
			}
			if s1.Attrs[a1].Type != s2.Attrs[a2].Type {
				return fmt.Errorf("rule %s: ML predicate %s: incompatible %s.%s vs %s.%s",
					r.Name, p.Model, s1.Name, p.A1VecNames[i], s2.Name, p.A2VecNames[i])
			}
			p.A1Vec = append(p.A1Vec, a1)
			p.A2Vec = append(p.A2Vec, a2)
		}
	}
	return nil
}

// String renders the rule in the DSL syntax accepted by Parse.
func (r *Rule) String() string {
	var b strings.Builder
	if r.Name != "" {
		b.WriteString(r.Name)
		b.WriteString(": ")
	}
	for i, v := range r.Vars {
		if i > 0 {
			b.WriteString(" ^ ")
		}
		fmt.Fprintf(&b, "%s(%s)", v.Rel, v.Name)
	}
	for i := range r.Body {
		b.WriteString(" ^ ")
		b.WriteString(predString(&r.Body[i]))
	}
	b.WriteString(" -> ")
	b.WriteString(predString(&r.Head))
	return b.String()
}

// String renders the predicate in the DSL syntax accepted by Parse.
func (p *Pred) String() string { return predString(p) }

// constEscaper escapes exactly what the lexer unescapes, the quote and the
// backslash; every other byte of a constant stands for itself in a string.
var constEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

func predString(p *Pred) string {
	switch p.Kind {
	case PredConst:
		return fmt.Sprintf(`%s.%s = "%s"`, p.V1Name, p.A1Name, constEscaper.Replace(p.ConstText))
	case PredEq:
		return fmt.Sprintf("%s.%s = %s.%s", p.V1Name, p.A1Name, p.V2Name, p.A2Name)
	case PredID:
		return fmt.Sprintf("%s.id = %s.id", p.V1Name, p.V2Name)
	case PredML:
		return fmt.Sprintf("%s(%s[%s], %s[%s])", p.Model,
			p.V1Name, strings.Join(p.A1VecNames, ","),
			p.V2Name, strings.Join(p.A2VecNames, ","))
	}
	return "?"
}

// NumPredicates returns |φ|-style size: the number of body predicates plus
// relation atoms (used by the Fig 6(e)-(f) experiments when sweeping the
// average rule width).
func (r *Rule) NumPredicates() int { return len(r.Vars) + len(r.Body) }
