package dsl

import (
	"errors"
	"fmt"

	"micropnp/internal/bytecode"
)

// Parse builds the AST for DSL source.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseProgram()
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) accept(k TokenKind) bool {
	if p.cur().Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k TokenKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, fmt.Errorf("%s: expected %v, found %v", t.Pos(), k, t)
	}
	p.advance()
	return t, nil
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for {
		switch p.cur().Kind {
		case TokEOF:
			if len(prog.Handlers) == 0 {
				return nil, errors.New("driver defines no handlers")
			}
			return prog, nil
		case TokNewline:
			p.advance()
		case TokImport:
			p.advance()
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSemicolon); err != nil {
				return nil, err
			}
			prog.Imports = append(prog.Imports, name.Text)
		case TokEvent, TokError:
			h, err := p.parseHandler()
			if err != nil {
				return nil, err
			}
			prog.Handlers = append(prog.Handlers, h)
		case TokIdent:
			if _, ok := builtinTypes[p.cur().Text]; !ok {
				return nil, fmt.Errorf("%s: unknown declaration %q", p.cur().Pos(), p.cur().Text)
			}
			decls, err := p.parseVarDecls()
			if err != nil {
				return nil, err
			}
			prog.Statics = append(prog.Statics, decls...)
		default:
			return nil, fmt.Errorf("%s: unexpected %v at top level", p.cur().Pos(), p.cur())
		}
	}
}

// parseVarDecls parses `type name[len]?, name2, ...;` (top-level statics).
func (p *parser) parseVarDecls() ([]*VarDecl, error) {
	typTok := p.advance()
	typ := builtinTypes[typTok.Text]
	var out []*VarDecl
	for {
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		d := &VarDecl{Type: typ, Name: name.Text, Line: name.Line}
		if p.accept(TokLBracket) {
			n, err := p.expect(TokInt)
			if err != nil {
				return nil, err
			}
			if n.Val <= 0 || n.Val > bytecode.MaxStaticSize {
				return nil, fmt.Errorf("%s: array length %d out of range", n.Pos(), n.Val)
			}
			d.ArrayLen = int(n.Val)
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
		}
		out = append(out, d)
		if p.accept(TokComma) {
			continue
		}
		if _, err := p.expect(TokSemicolon); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func (p *parser) parseHandler() (*HandlerDecl, error) {
	kw := p.advance() // event or error
	h := &HandlerDecl{IsError: kw.Kind == TokError, Line: kw.Line}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	h.Name = name.Text
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	if !p.accept(TokRParen) {
		for {
			typTok, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			typ, ok := builtinTypes[typTok.Text]
			if !ok {
				return nil, fmt.Errorf("%s: unknown parameter type %q", typTok.Pos(), typTok.Text)
			}
			pname, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			h.Params = append(h.Params, &VarDecl{Type: typ, Name: pname.Text, Line: pname.Line})
			if p.accept(TokComma) {
				continue
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			break
		}
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	h.Body = body
	return h, nil
}

// parseBlock parses NEWLINE INDENT stmt+ DEDENT.
func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokNewline); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokIndent); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for p.cur().Kind != TokDedent && p.cur().Kind != TokEOF {
		if p.accept(TokNewline) {
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	if _, err := p.expect(TokDedent); err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("%s: empty block", p.cur().Pos())
	}
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case TokIf:
		return p.parseIf()
	case TokWhile:
		return p.parseWhile()
	case TokSignal:
		return p.parseSignal()
	case TokReturn:
		return p.parseReturn()
	case TokPass:
		p.advance()
		if err := p.endSimple(); err != nil {
			return nil, err
		}
		return &PassStmt{Line: t.Line}, nil
	case TokIdent:
		if _, isType := builtinTypes[t.Text]; isType {
			return p.parseLocalDecl()
		}
		return p.parseAssignOrExpr()
	default:
		return nil, fmt.Errorf("%s: unexpected %v in statement position", t.Pos(), t)
	}
}

// endSimple consumes the `;` + newline terminating a simple statement.
func (p *parser) endSimple() error {
	if _, err := p.expect(TokSemicolon); err != nil {
		return err
	}
	if _, err := p.expect(TokNewline); err != nil {
		return err
	}
	return nil
}

func (p *parser) parseLocalDecl() (Stmt, error) {
	typTok := p.advance()
	typ := builtinTypes[typTok.Text]
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d := &VarDecl{Type: typ, Name: name.Text, Line: name.Line}
	if p.accept(TokAssign) {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if err := p.endSimple(); err != nil {
		return nil, err
	}
	return &LocalDecl{Decl: d, Line: typTok.Line}, nil
}

func (p *parser) parseAssignOrExpr() (Stmt, error) {
	t := p.cur()
	// Postfix-only statement: `idx++;`.
	if p.peek().Kind == TokPlusPlus || p.peek().Kind == TokMinusMinus {
		name := p.advance()
		op := p.advance()
		if err := p.endSimple(); err != nil {
			return nil, err
		}
		return &ExprStmt{X: &PostfixExpr{Name: name.Text, Op: op.Kind, Line: name.Line}, Line: name.Line}, nil
	}

	lv := &LValue{Name: p.advance().Text, Line: t.Line}
	if p.accept(TokLBracket) {
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		lv.Index = idx
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
	}
	opTok := p.cur()
	switch opTok.Kind {
	case TokAssign, TokPlusEq, TokMinusEq:
		p.advance()
	default:
		return nil, fmt.Errorf("%s: expected assignment operator, found %v", opTok.Pos(), opTok)
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.endSimple(); err != nil {
		return nil, err
	}
	return &AssignStmt{Target: lv, Op: opTok.Kind, Value: val, Line: t.Line}, nil
}

func (p *parser) parseSignal() (Stmt, error) {
	kw := p.advance()
	var dest string
	switch p.cur().Kind {
	case TokThis:
		dest = "this"
		p.advance()
	case TokIdent:
		dest = p.advance().Text
	default:
		return nil, fmt.Errorf("%s: expected signal destination, found %v", p.cur().Pos(), p.cur())
	}
	if _, err := p.expect(TokDot); err != nil {
		return nil, err
	}
	evt, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var args []Expr
	if !p.accept(TokRParen) {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.accept(TokComma) {
				continue
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			break
		}
	}
	if err := p.endSimple(); err != nil {
		return nil, err
	}
	return &SignalStmt{Dest: dest, Event: evt.Text, Args: args, Line: kw.Line}, nil
}

func (p *parser) parseReturn() (Stmt, error) {
	kw := p.advance()
	if p.accept(TokSemicolon) {
		if _, err := p.expect(TokNewline); err != nil {
			return nil, err
		}
		return &ReturnStmt{Line: kw.Line}, nil
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.endSimple(); err != nil {
		return nil, err
	}
	return &ReturnStmt{Value: val, Line: kw.Line}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	kw := p.advance()
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &IfStmt{Cond: cond, Then: then, Line: kw.Line}
	switch p.cur().Kind {
	case TokElif:
		elifStmt, err := p.parseIf() // reuse: elif parses like if
		if err != nil {
			return nil, err
		}
		node.Else = []Stmt{elifStmt}
	case TokElse:
		p.advance()
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		els, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	return node, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	kw := p.advance()
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Line: kw.Line}, nil
}

// Expression parsing, precedence climbing (lowest first):
// or < and < not/! < comparison < | < ^ < & < shift < additive <
// multiplicative < unary < postfix/primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokOr {
		op := p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: TokOr, L: l, R: r, Line: op.Line}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokAnd {
		op := p.advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: TokAnd, L: l, R: r, Line: op.Line}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.cur().Kind == TokNot || p.cur().Kind == TokBang {
		op := p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: TokBang, X: x, Line: op.Line}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseBitOr()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
		op := p.advance()
		r, err := p.parseBitOr()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op.Kind, L: l, R: r, Line: op.Line}, nil
	}
	return l, nil
}

func (p *parser) parseBitOr() (Expr, error)  { return p.parseBinary(p.parseBitXor, TokPipe) }
func (p *parser) parseBitXor() (Expr, error) { return p.parseBinary(p.parseBitAnd, TokCaret) }
func (p *parser) parseBitAnd() (Expr, error) { return p.parseBinary(p.parseShift, TokAmp) }
func (p *parser) parseShift() (Expr, error)  { return p.parseBinary(p.parseAdditive, TokShl, TokShr) }
func (p *parser) parseAdditive() (Expr, error) {
	return p.parseBinary(p.parseMultiplicative, TokPlus, TokMinus)
}
func (p *parser) parseMultiplicative() (Expr, error) {
	return p.parseBinary(p.parseUnary, TokStar, TokSlash, TokPercent)
}

func (p *parser) parseBinary(next func() (Expr, error), ops ...TokenKind) (Expr, error) {
	l, err := next()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, k := range ops {
			if p.cur().Kind == k {
				op := p.advance()
				r, err := next()
				if err != nil {
					return nil, err
				}
				l = &BinaryExpr{Op: k, L: l, R: r, Line: op.Line}
				matched = true
				break
			}
		}
		if !matched {
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case TokMinus, TokTilde, TokBang:
		op := p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op.Kind, X: x, Line: op.Line}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt, TokChar:
		p.advance()
		return &IntLit{Val: int32(t.Val), Line: t.Line}, nil
	case TokTrue:
		p.advance()
		return &IntLit{Val: 1, Line: t.Line}, nil
	case TokFalse:
		p.advance()
		return &IntLit{Val: 0, Line: t.Line}, nil
	case TokLParen:
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	case TokIdent:
		p.advance()
		switch p.cur().Kind {
		case TokLBracket:
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			return &IndexExpr{Name: t.Text, Index: idx, Line: t.Line}, nil
		case TokPlusPlus, TokMinusMinus:
			op := p.advance()
			return &PostfixExpr{Name: t.Text, Op: op.Kind, Line: t.Line}, nil
		default:
			return &Ident{Name: t.Text, Line: t.Line}, nil
		}
	default:
		return nil, fmt.Errorf("%s: unexpected %v in expression", t.Pos(), t)
	}
}
