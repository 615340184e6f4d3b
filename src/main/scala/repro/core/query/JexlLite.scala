package repro.core.query

import repro.core.model.Event

/** Tiny expression language standing in for Apache Commons JEXL, which the
  * paper uses for filter expressions (§3.4). Supports field references,
  * numeric/string/bool literals, arithmetic, comparisons and boolean logic —
  * everything the Fig. 4 grammar's `filterExpression` slot needs.
  */
object JexlLite {

  sealed trait Expr { def eval(e: Event): Any }

  final case class NumLit(v: Double) extends Expr { def eval(e: Event): Any = v }
  final case class StrLit(v: String) extends Expr { def eval(e: Event): Any = v }
  final case class BoolLit(v: Boolean) extends Expr { def eval(e: Event): Any = v }
  final case class FieldRef(name: String) extends Expr {
    def eval(e: Event): Any = e.values.getOrElse(name, null)
  }
  final case class Unary(op: String, x: Expr) extends Expr {
    def eval(e: Event): Any = op match {
      case "!" => !truthy(x.eval(e))
      case "-" => -num(x.eval(e))
    }
  }
  final case class Binary(op: String, l: Expr, r: Expr) extends Expr {
    def eval(e: Event): Any = op match {
      case "&&" => truthy(l.eval(e)) && truthy(r.eval(e))
      case "||" => truthy(l.eval(e)) || truthy(r.eval(e))
      case "+"  => num(l.eval(e)) + num(r.eval(e))
      case "-"  => num(l.eval(e)) - num(r.eval(e))
      case "*"  => num(l.eval(e)) * num(r.eval(e))
      case "/"  => num(l.eval(e)) / num(r.eval(e))
      case "==" => valEq(l.eval(e), r.eval(e))
      case "!=" => !valEq(l.eval(e), r.eval(e))
      case "<"  => num(l.eval(e)) < num(r.eval(e))
      case "<=" => num(l.eval(e)) <= num(r.eval(e))
      case ">"  => num(l.eval(e)) > num(r.eval(e))
      case ">=" => num(l.eval(e)) >= num(r.eval(e))
    }
  }

  private def truthy(v: Any): Boolean = v match {
    case b: Boolean => b
    case null       => false
    case d: Double  => d != 0.0
    case l: Long    => l != 0L
    case s: String  => s.nonEmpty
    case _          => true
  }

  private def num(v: Any): Double = v match {
    case d: Double  => d
    case l: Long    => l.toDouble
    case i: Int     => i.toDouble
    case b: Boolean => if (b) 1.0 else 0.0
    case s: String  => try s.toDouble catch { case _: NumberFormatException => Double.NaN }
    case null       => Double.NaN
    case other      => throw new IllegalArgumentException(s"not numeric: $other")
  }

  private def valEq(a: Any, b: Any): Boolean = (a, b) match {
    case (null, null)   => true
    case (null, _)      => false
    case (_, null)      => false
    case (x: String, y) => x == String.valueOf(y)
    case (x, y: String) => String.valueOf(x) == y
    case (x, y)         => num(x) == num(y)
  }

  /** The fields `expr` reads. */
  def fields(expr: Expr): Seq[String] = expr match {
    case FieldRef(name)  => Seq(name)
    case Unary(_, x)     => fields(x)
    case Binary(_, l, r) => fields(l) ++ fields(r)
    case _               => Nil
  }

  /** Evaluates `expr` as a predicate over `event`. */
  def matches(expr: Expr, event: Event): Boolean = truthy(expr.eval(event))

  // ---- recursive-descent parser -----------------------------------------

  def parse(s: String): Expr = {
    val p = new Parser(s)
    val e = p.parseOr()
    p.skipWs()
    require(p.atEnd, s"trailing input in expression at ${p.pos}: '$s'")
    e
  }

  private final class Parser(s: String) {
    var pos = 0
    def atEnd: Boolean = pos >= s.length
    def skipWs(): Unit = while (!atEnd && s.charAt(pos).isWhitespace) pos += 1
    private def peek(tok: String): Boolean = {
      skipWs(); s.regionMatches(pos, tok, 0, tok.length)
    }
    private def eat(tok: String): Boolean = {
      if (peek(tok)) { pos += tok.length; true } else false
    }

    def parseOr(): Expr = {
      var l = parseAnd()
      while (eat("||")) l = Binary("||", l, parseAnd())
      l
    }
    def parseAnd(): Expr = {
      var l = parseCmp()
      while (eat("&&")) l = Binary("&&", l, parseCmp())
      l
    }
    def parseCmp(): Expr = {
      val l = parseAdd()
      // two-char ops before one-char ops
      Seq("==", "!=", "<=", ">=", "<", ">").find(peek) match {
        case Some(op) => eat(op); Binary(op, l, parseAdd())
        case None     => l
      }
    }
    def parseAdd(): Expr = {
      var l = parseMul()
      var go = true
      while (go) {
        if (eat("+")) l = Binary("+", l, parseMul())
        else if (peek("-") && !peek("->")) { eat("-"); l = Binary("-", l, parseMul()) }
        else go = false
      }
      l
    }
    def parseMul(): Expr = {
      var l = parseUnary()
      var go = true
      while (go) {
        if (eat("*")) l = Binary("*", l, parseUnary())
        else if (eat("/")) l = Binary("/", l, parseUnary())
        else go = false
      }
      l
    }
    def parseUnary(): Expr = {
      if (eat("!")) Unary("!", parseUnary())
      else if (eat("-")) Unary("-", parseUnary())
      else parseAtom()
    }
    def parseAtom(): Expr = {
      skipWs()
      require(!atEnd, s"unexpected end of expression: '$s'")
      val c = s.charAt(pos)
      if (c == '(') {
        pos += 1
        val e = parseOr()
        skipWs()
        require(!atEnd && s.charAt(pos) == ')', s"expected ')' at $pos in '$s'")
        pos += 1
        e
      } else if (c == '\'' || c == '"') {
        val quote = c
        pos += 1
        val sb = new StringBuilder
        while (!atEnd && s.charAt(pos) != quote) { sb += s.charAt(pos); pos += 1 }
        require(!atEnd, s"unterminated string in '$s'")
        pos += 1
        StrLit(sb.toString)
      } else if (c.isDigit || (c == '.' && pos + 1 < s.length && s.charAt(pos + 1).isDigit)) {
        val start = pos
        while (!atEnd && (s.charAt(pos).isDigit || s.charAt(pos) == '.')) pos += 1
        NumLit(s.substring(start, pos).toDouble)
      } else if (c.isLetter || c == '_') {
        val start = pos
        while (!atEnd && (s.charAt(pos).isLetterOrDigit || s.charAt(pos) == '_')) pos += 1
        val word = s.substring(start, pos)
        word.toLowerCase match {
          case "true"  => BoolLit(true)
          case "false" => BoolLit(false)
          case "null"  => StrLit(null) // rendered as null value
          case _       => FieldRef(word)
        }
      } else throw new IllegalArgumentException(s"unexpected char '$c' at $pos in '$s'")
    }
  }
}
