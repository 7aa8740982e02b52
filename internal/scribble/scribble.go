// Package scribble parses the Scribble protocol-description subset used by
// the paper (Fig. 3a and Listing 1) into global session types.
//
// Supported grammar:
//
//	protocol   ::= "global" "protocol" name "(" roles ")" "{" stmts "}"
//	roles      ::= "role" name ("," "role" name)*
//	stmts      ::= stmt*
//	stmt       ::= message | choice | rec | continue
//	message    ::= label "(" [sort] ")" "from" role "to" role ";"
//	choice     ::= "choice" "at" role block ("or" block)+
//	rec        ::= "rec" name block
//	continue   ::= "continue" name ";"
//	block      ::= "{" stmts "}"
//
// As in Scribble, a choice's branches must each begin with a message from the
// deciding role, whose label discriminates the branch.
package scribble

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/types"
)

// Protocol is a parsed Scribble protocol.
type Protocol struct {
	Name   string
	Roles  []types.Role
	Global types.Global
}

// Parse parses a single global protocol declaration.
func Parse(src string) (*Protocol, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &scribParser{toks: toks}
	proto, err := p.protocol()
	if err != nil {
		return nil, err
	}
	if !p.done() {
		return nil, fmt.Errorf("scribble: trailing tokens after protocol: %q", p.peek())
	}
	if err := types.ValidateGlobal(proto.Global); err != nil {
		return nil, fmt.Errorf("scribble: protocol %s is ill-formed: %w", proto.Name, err)
	}
	return proto, nil
}

// lex decodes src as UTF-8 — byte-wise decoding would silently read each
// invalid byte as its Latin-1 letter (0xFB lexes as 'û'), admitting
// identifiers that are not valid UTF-8 and so cannot appear in generated
// Go source (the whole-stack fuzzer found exactly that), while mis-lexing
// genuine multi-byte letters.
func lex(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c, size := utf8.DecodeRuneInString(src[i:])
		if c == utf8.RuneError && size <= 1 {
			return nil, fmt.Errorf("scribble: invalid UTF-8 byte 0x%02x at offset %d", src[i], i)
		}
		switch {
		case unicode.IsSpace(c):
			i += size
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.ContainsRune("(){},;<>", c):
			toks = append(toks, string(c))
			i += size
		case unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_':
			j := i
			for j < len(src) {
				r, sz := utf8.DecodeRuneInString(src[j:])
				if r == utf8.RuneError && sz <= 1 {
					return nil, fmt.Errorf("scribble: invalid UTF-8 byte 0x%02x at offset %d", src[j], j)
				}
				if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
					j += sz
				} else {
					break
				}
			}
			toks = append(toks, src[i:j])
			i = j
		default:
			return nil, fmt.Errorf("scribble: unexpected character %q", c)
		}
	}
	return toks, nil
}

type scribParser struct {
	toks []string
	pos  int
}

func (p *scribParser) done() bool { return p.pos >= len(p.toks) }

func (p *scribParser) peek() string {
	if p.done() {
		return ""
	}
	return p.toks[p.pos]
}

func (p *scribParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *scribParser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("scribble: expected %q, got %q (token %d)", tok, got, p.pos-1)
	}
	return nil
}

func (p *scribParser) ident() (string, error) {
	t := p.next()
	if t == "" || strings.ContainsAny(t, "(){},;<>") {
		return "", fmt.Errorf("scribble: expected identifier, got %q", t)
	}
	return t, nil
}

// sortExpr parses a possibly parameterised payload sort: ident or
// ident '<' sort '>' (e.g. f64, vec<complex128>). The spelling is
// canonicalised with no interior whitespace, matching the types package.
func (p *scribParser) sortExpr() (types.Sort, error) {
	id, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.peek() == "<" {
		p.next()
		inner, err := p.sortExpr()
		if err != nil {
			return "", err
		}
		if err := p.expect(">"); err != nil {
			return "", err
		}
		return types.Sort(id + "<" + string(inner) + ">"), nil
	}
	return types.Sort(id), nil
}

func (p *scribParser) protocol() (*Protocol, error) {
	if err := p.expect("global"); err != nil {
		return nil, err
	}
	if err := p.expect("protocol"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var roles []types.Role
	for {
		if err := p.expect("role"); err != nil {
			return nil, err
		}
		r, err := p.ident()
		if err != nil {
			return nil, err
		}
		roles = append(roles, types.Role(r))
		if p.peek() == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.block(map[string]bool{})
	if err != nil {
		return nil, err
	}
	return &Protocol{Name: name, Roles: roles, Global: body}, nil
}

// block parses "{ stmts }" and returns the global type of the statement
// sequence, terminated by end unless a continue ends the block.
func (p *scribParser) block(recs map[string]bool) (types.Global, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	g, err := p.stmts(recs)
	if err != nil {
		return nil, err
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return g, nil
}

func (p *scribParser) stmts(recs map[string]bool) (types.Global, error) {
	switch p.peek() {
	case "}", "":
		return types.GEnd{}, nil
	case "rec":
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		inner := map[string]bool{}
		for k := range recs {
			inner[k] = true
		}
		inner[name] = true
		body, err := p.block(inner)
		if err != nil {
			return nil, err
		}
		rest, err := p.stmts(recs)
		if err != nil {
			return nil, err
		}
		if _, isEnd := rest.(types.GEnd); !isEnd {
			return nil, fmt.Errorf("scribble: statements after rec %s are unsupported", name)
		}
		return types.GRec{Name: name, Body: body}, nil
	case "continue":
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if !recs[name] {
			return nil, fmt.Errorf("scribble: continue %s outside rec %s", name, name)
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return types.GVar{Name: name}, nil
	case "choice":
		return p.choice(recs)
	default:
		return p.message(recs)
	}
}

func (p *scribParser) message(recs map[string]bool) (types.Global, error) {
	label, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	sort := types.Unit
	if p.peek() != ")" {
		s, err := p.sortExpr()
		if err != nil {
			return nil, err
		}
		sort = s
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("from"); err != nil {
		return nil, err
	}
	from, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("to"); err != nil {
		return nil, err
	}
	to, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	cont, err := p.stmts(recs)
	if err != nil {
		return nil, err
	}
	return types.Comm{
		From:     types.Role(from),
		To:       types.Role(to),
		Branches: []types.GBranch{{Label: types.Label(label), Sort: sort, Cont: cont}},
	}, nil
}

func (p *scribParser) choice(recs map[string]bool) (types.Global, error) {
	if err := p.expect("choice"); err != nil {
		return nil, err
	}
	if err := p.expect("at"); err != nil {
		return nil, err
	}
	at, err := p.ident()
	if err != nil {
		return nil, err
	}
	var branches []types.Global
	first, err := p.block(recs)
	if err != nil {
		return nil, err
	}
	branches = append(branches, first)
	for p.peek() == "or" {
		p.next()
		b, err := p.block(recs)
		if err != nil {
			return nil, err
		}
		branches = append(branches, b)
	}
	if len(branches) < 2 {
		return nil, fmt.Errorf("scribble: choice at %s needs at least two branches", at)
	}
	// Each branch must begin with a message from the deciding role; the
	// leading messages are combined into one directed interaction.
	var from, to types.Role
	var gbs []types.GBranch
	seen := map[types.Label]bool{}
	for i, b := range branches {
		comm, ok := b.(types.Comm)
		if !ok || len(comm.Branches) != 1 {
			return nil, fmt.Errorf("scribble: branch %d of choice at %s must start with a single message", i+1, at)
		}
		if comm.From != types.Role(at) {
			return nil, fmt.Errorf("scribble: branch %d of choice at %s starts with a message from %s", i+1, at, comm.From)
		}
		if i == 0 {
			from, to = comm.From, comm.To
		} else if comm.From != from || comm.To != to {
			return nil, fmt.Errorf("scribble: choice at %s has branches towards different receivers (%s and %s)", at, to, comm.To)
		}
		gb := comm.Branches[0]
		if seen[gb.Label] {
			return nil, fmt.Errorf("scribble: choice at %s has duplicate label %s", at, gb.Label)
		}
		seen[gb.Label] = true
		gbs = append(gbs, gb)
	}
	cont, err := p.stmts(recs)
	if err != nil {
		return nil, err
	}
	if _, isEnd := cont.(types.GEnd); !isEnd {
		return nil, fmt.Errorf("scribble: statements after a choice are unsupported; place them inside each branch")
	}
	return types.Comm{From: from, To: to, Branches: gbs}, nil
}
