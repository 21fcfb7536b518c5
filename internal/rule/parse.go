package rule

import (
	"fmt"
	"strings"
	"unicode"

	"dcer/internal/relation"
)

// Parse reads a set of MRLs in the rule DSL. One rule per logical
// statement; a rule may span lines until its head is complete. Syntax:
//
//	phi1: Customers(t) ^ Customers(s) ^ t.name = s.name ^
//	      t.phone = s.phone ^ t.addr = s.addr -> t.id = s.id
//	phi2: Products(p) ^ Products(q) ^ p.pname = q.pname ^
//	      M1(p.desc, q.desc) -> p.id = q.id
//
// Predicates are separated by '^' (or '&&' or ','). `.id` denotes the
// designated id attribute and makes the predicate an id predicate. ML
// predicates are Model(t.attr, s.attr) or Model(t[a,b], s[a,b]). Constants
// are double-quoted strings or bare numbers; in a string a backslash makes
// the next byte (a quote, a backslash) literal, and every other byte stands
// for itself. '#' starts a comment.
//
// Parse only builds the AST; call Rule.Resolve (or ParseResolved) to bind
// rules to a database schema.
func Parse(input string) ([]*Rule, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var rules []*Rule
	for !p.atEOF() {
		p.skipNewlines()
		if p.atEOF() {
			break
		}
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// MustParse is Parse that panics on error; for tests and fixtures.
func MustParse(input string) []*Rule {
	rs, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return rs
}

// ParseResolved parses rules and resolves each against db.
func ParseResolved(input string, db *relation.Database) ([]*Rule, error) {
	rules, err := Parse(input)
	if err != nil {
		return nil, err
	}
	for _, r := range rules {
		if err := r.Resolve(db); err != nil {
			return nil, err
		}
	}
	return rules, nil
}

type tokKind uint8

const (
	tokIdent tokKind = iota
	tokString
	tokNumber
	tokPunct // one of ( ) [ ] , . ^ : = ->
	tokNewline
	tokEOF
)

type token struct {
	kind tokKind
	text string
	line int
}

func lex(input string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == '#': // comment to end of line
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '\n':
			toks = append(toks, token{tokNewline, "\n", line})
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < n && input[j] != '"' {
				if input[j] == '\\' && j+1 < n {
					j++
				}
				sb.WriteByte(input[j])
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("rule: line %d: unterminated string", line)
			}
			toks = append(toks, token{tokString, sb.String(), line})
			i = j + 1
		case c == '-' && i+1 < n && input[i+1] == '>':
			toks = append(toks, token{tokPunct, "->", line})
			i += 2
		case c == '&' && i+1 < n && input[i+1] == '&':
			toks = append(toks, token{tokPunct, "^", line})
			i += 2
		case strings.ContainsRune("()[],.^:=", rune(c)):
			toks = append(toks, token{tokPunct, string(c), line})
			i++
		case c == '-' || c >= '0' && c <= '9':
			j := i
			if input[j] == '-' {
				j++
			}
			for j < n && (input[j] >= '0' && input[j] <= '9' || input[j] == '.') {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j], line})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < n && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, input[i:j], line})
			i = j
		default:
			return nil, fmt.Errorf("rule: line %d: unexpected character %q", line, c)
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) skipNewlines() {
	for p.cur().kind == tokNewline {
		p.pos++
	}
}

// peekNonNewline returns the next non-newline token without consuming.
func (p *parser) peekNonNewline() token {
	j := p.pos
	for p.toks[j].kind == tokNewline {
		j++
	}
	return p.toks[j]
}

func (p *parser) expectPunct(s string) error {
	p.skipNewlines()
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("rule: line %d: expected %q, got %q", t.line, s, t.text)
	}
	return nil
}

func (p *parser) parseRule() (*Rule, error) {
	r := &Rule{}
	// Optional "name :" prefix.
	if p.cur().kind == tokIdent && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == ":" {
		r.Name = p.next().text
		p.next() // ":"
	}
	// Preconditions.
	for {
		p.skipNewlines()
		if _, err := p.parseAtom(r, false); err != nil {
			return nil, err
		}
		sep := p.peekNonNewline()
		if sep.kind == tokPunct && (sep.text == "^" || sep.text == ",") {
			p.skipNewlines()
			p.next()
			continue
		}
		if sep.kind == tokPunct && sep.text == "->" {
			p.skipNewlines()
			p.next()
			break
		}
		return nil, fmt.Errorf("rule: line %d: expected '^' or '->', got %q", sep.line, sep.text)
	}
	// Head.
	p.skipNewlines()
	if _, err := p.parseAtom(r, true); err != nil {
		return nil, err
	}
	// A rule ends at a newline or EOF after the head.
	t := p.cur()
	if t.kind != tokNewline && t.kind != tokEOF {
		return nil, fmt.Errorf("rule: line %d: trailing %q after rule head", t.line, t.text)
	}
	if len(r.Vars) == 0 {
		return nil, fmt.Errorf("rule %s: no relation atoms", r.Name)
	}
	return r, nil
}

// parseAtom parses one atom: a relation atom R(t), an equality/constant
// predicate, or an ML predicate. If head is true, it is stored in
// Rule.Head, otherwise appended to Vars/Body.
func (p *parser) parseAtom(r *Rule, head bool) (PredKind, error) {
	t := p.next()
	if t.kind != tokIdent {
		return 0, fmt.Errorf("rule: line %d: expected identifier, got %q", t.line, t.text)
	}
	nx := p.cur()
	if nx.kind == tokPunct && nx.text == "(" {
		// Relation atom or ML atom; disambiguate by the shape inside.
		return p.parseParenAtom(r, t.text, head)
	}
	if nx.kind == tokPunct && nx.text == "." {
		// var.attr = <rhs>
		p.next()
		attr := p.next()
		if attr.kind != tokIdent {
			return 0, fmt.Errorf("rule: line %d: expected attribute after '.', got %q", attr.line, attr.text)
		}
		if err := p.expectPunct("="); err != nil {
			return 0, err
		}
		p.skipNewlines()
		rhs := p.next()
		var pred Pred
		switch {
		case rhs.kind == tokString:
			pred = Pred{Kind: PredConst, V1Name: t.text, A1Name: attr.text, ConstText: rhs.text}
		case rhs.kind == tokNumber:
			pred = Pred{Kind: PredConst, V1Name: t.text, A1Name: attr.text, ConstText: rhs.text}
		case rhs.kind == tokIdent:
			if err := p.expectPunct("."); err != nil {
				return 0, err
			}
			attr2 := p.next()
			if attr2.kind != tokIdent {
				return 0, fmt.Errorf("rule: line %d: expected attribute after '.', got %q", attr2.line, attr2.text)
			}
			k := PredEq
			if attr.text == "id" && attr2.text == "id" {
				k = PredID
			}
			pred = Pred{Kind: k, V1Name: t.text, A1Name: attr.text, V2Name: rhs.text, A2Name: attr2.text}
		default:
			return 0, fmt.Errorf("rule: line %d: bad right-hand side %q", rhs.line, rhs.text)
		}
		if head {
			r.Head = pred
		} else {
			r.Body = append(r.Body, pred)
		}
		return pred.Kind, nil
	}
	return 0, fmt.Errorf("rule: line %d: unexpected token %q after %q", nx.line, nx.text, t.text)
}

func (p *parser) parseParenAtom(r *Rule, name string, head bool) (PredKind, error) {
	if err := p.expectPunct("("); err != nil {
		return 0, err
	}
	first := p.next()
	if first.kind != tokIdent {
		return 0, fmt.Errorf("rule: line %d: expected identifier inside %s(...)", first.line, name)
	}
	nx := p.cur()
	if nx.kind == tokPunct && nx.text == ")" {
		// Relation atom R(t).
		p.next()
		if head {
			return 0, fmt.Errorf("rule: line %d: relation atom %s(%s) cannot be a head", first.line, name, first.text)
		}
		r.Vars = append(r.Vars, Var{Name: first.text, Rel: name})
		return PredEq, nil
	}
	// ML atom: Model(v.attr, w.attr) or Model(v[a,b], w[a,b]).
	pred := Pred{Kind: PredML, Model: name, V1Name: first.text}
	var err error
	pred.A1VecNames, err = p.parseMLAttrs()
	if err != nil {
		return 0, err
	}
	if err := p.expectPunct(","); err != nil {
		return 0, err
	}
	p.skipNewlines()
	second := p.next()
	if second.kind != tokIdent {
		return 0, fmt.Errorf("rule: line %d: expected identifier in ML atom, got %q", second.line, second.text)
	}
	pred.V2Name = second.text
	pred.A2VecNames, err = p.parseMLAttrs()
	if err != nil {
		return 0, err
	}
	if err := p.expectPunct(")"); err != nil {
		return 0, err
	}
	if head {
		r.Head = pred
	} else {
		r.Body = append(r.Body, pred)
	}
	return PredML, nil
}

// parseMLAttrs parses ".attr" or "[a,b,c]" after an ML-atom variable, or
// nothing (whole-tuple semantics represented by an empty vector is not
// supported; at least one attribute is required).
func (p *parser) parseMLAttrs() ([]string, error) {
	t := p.cur()
	if t.kind == tokPunct && t.text == "." {
		p.next()
		a := p.next()
		if a.kind != tokIdent {
			return nil, fmt.Errorf("rule: line %d: expected attribute after '.', got %q", a.line, a.text)
		}
		return []string{a.text}, nil
	}
	if t.kind == tokPunct && t.text == "[" {
		p.next()
		var attrs []string
		for {
			a := p.next()
			if a.kind != tokIdent {
				return nil, fmt.Errorf("rule: line %d: expected attribute in [...], got %q", a.line, a.text)
			}
			attrs = append(attrs, a.text)
			sep := p.next()
			if sep.kind == tokPunct && sep.text == "," {
				continue
			}
			if sep.kind == tokPunct && sep.text == "]" {
				return attrs, nil
			}
			return nil, fmt.Errorf("rule: line %d: expected ',' or ']', got %q", sep.line, sep.text)
		}
	}
	return nil, fmt.Errorf("rule: line %d: expected '.attr' or '[attrs]' in ML atom, got %q", t.line, t.text)
}
