package repro.core.query

import repro.core.agg.AggKind
import repro.core.model.{Event, FieldDef, FieldType}

/** One aggregation of a SELECT list: e.g. sum(amount), count(). */
final case class AggSpec(kind: AggKind, field: Option[String]) {
  val label: String = s"${kind.name}(${field.getOrElse("*")})"

  /** What an event feeds into this aggregation's state: a unit for count,
    * the field's string form for countDistinct, else the numeric field; null
    * for an event that lacks the field.
    */
  def valueOf(e: Event): Any = kind match {
    case AggKind.Count                        => AggSpec.One
    case _ if !e.values.contains(field.get) => null
    case AggKind.CountDistinct                => e.str(field.get)
    case _                                    => e.num(field.get)
  }
}

object AggSpec {
  /** What every event feeds into a count, boxed once. */
  private val One: Any = 1.0
}

/** Window expressions of the Railgun language (Fig. 4). Hopping windows are
  * deliberately unsupported — the paper sees them only as an approximation
  * of its sliding windows.
  */
sealed trait WindowSpec {
  def delayMs: Long
  /** Distinct iterator offsets this window needs: head and (if finite) tail. */
  def iteratorOffsets: Seq[Long]
}
final case class SlidingWindow(sizeMs: Long, delayMs: Long = 0L) extends WindowSpec {
  require(sizeMs > 0, "window size must be positive")
  def iteratorOffsets: Seq[Long] = Seq(delayMs, delayMs + sizeMs)
}
final case class TumblingWindow(sizeMs: Long, delayMs: Long = 0L) extends WindowSpec {
  require(sizeMs > 0, "window size must be positive")
  def iteratorOffsets: Seq[Long] = Seq(delayMs)
}
final case class InfiniteWindow(delayMs: Long = 0L) extends WindowSpec {
  def iteratorOffsets: Seq[Long] = Seq(delayMs)
}

/** A parsed Railgun statement: one or more aggregations over a single
  * stream, with an optional filter, group-by fields and a window (Fig. 4).
  */
final case class RailgunQuery(
    name: String,
    aggs: Seq[AggSpec],
    stream: String,
    filter: Option[JexlLite.Expr],
    filterSource: Option[String],
    groupBy: Seq[String],
    window: WindowSpec) {
  require(aggs.nonEmpty, "at least one aggregation required")
  require(groupBy.nonEmpty, "GROUP BY is required (it selects the partitioner)")
  /** The top-level entity whose topic this query's task consumes — the first
    * group-by field (§4: metrics need events hashed by a subset of their
    * group-by keys; the first field is that subset here).
    */
  def partitioner: String = groupBy.head

  /** Whether every field this query groups by, aggregates or filters on is
    * a field of `schema`, and every aggregation other than count and
    * countDistinct reads a numeric one. Chunks drop fields outside the
    * schema, so the plan would see such a field on insert but not on evict;
    * and a `StringT` value is not a number.
    */
  def readsOnly(schema: Seq[FieldDef]): Boolean = {
    val types = schema.map(f => f.name -> f.ftype).toMap
    (groupBy ++ aggs.flatMap(_.field) ++ filter.toSeq.flatMap(JexlLite.fields)).forall(types.contains) &&
      aggs.forall(a => a.kind == AggKind.Count || a.kind == AggKind.CountDistinct ||
        types(a.field.get) != FieldType.StringT)
  }
}

/** Parser for the SQL-like statement grammar of Fig. 4:
  *
  * {{{
  * SELECT agg(field) [, agg(field)]* FROM stream
  *   [WHERE filterExpr]
  *   GROUP BY f1 [, f2]*
  *   OVER (sliding <n> <unit> | tumbling <n> <unit> | infinite)
  *        [delayed by <n> <unit>]
  * }}}
  */
object RailgunParser {

  private val durationRe =
    """(?i)(\d+)\s*(ms|millis|milliseconds?|s|sec|secs|seconds?|m|min|mins|minutes?|h|hour|hours?|d|day|days?)""".r

  /** Parses "5 minutes", "10 s", "7 days", ... into milliseconds. */
  def parseDuration(s: String): Long = s.trim match {
    case durationRe(n, unit) =>
      val mult = unit.toLowerCase match {
        case u if u.startsWith("ms") || u.startsWith("milli") => 1L
        case u if u.startsWith("s")                           => 1000L
        case u if u.startsWith("m")                           => 60L * 1000L
        case u if u.startsWith("h")                           => 3600L * 1000L
        case u if u.startsWith("d")                           => 24L * 3600L * 1000L
      }
      n.toLong * mult
    case other => throw new IllegalArgumentException(s"cannot parse duration '$other'")
  }

  private val stmtRe =
    """(?is)\s*SELECT\s+(.*?)\s+FROM\s+(\w+)\s*(?:WHERE\s+(.*?)\s*)??GROUP\s+BY\s+([\w\s,]+?)\s+OVER\s+(.*?)\s*""".r

  def parse(sql: String, name: String = ""): RailgunQuery = sql match {
    case stmtRe(select, stream, where, groupBy, over) =>
      val aggs = select.split(",").map(_.trim).filter(_.nonEmpty).map(parseAgg).toSeq
      val filterSrc = Option(where).map(_.trim).filter(_.nonEmpty)
      val filter = filterSrc.map(JexlLite.parse)
      val gb = groupBy.split(",").map(_.trim).filter(_.nonEmpty).toSeq
      val window = parseWindow(over.trim)
      RailgunQuery(if (name.nonEmpty) name else s"q_${stream}_${aggs.map(_.label).mkString("_")}",
        aggs, stream, filter, filterSrc, gb, window)
    case _ => throw new IllegalArgumentException(s"cannot parse statement: $sql")
  }

  private val aggRe = """(?i)(\w+)\s*\(\s*(\*?|\w*)\s*\)""".r

  private def parseAgg(s: String): AggSpec = s match {
    case aggRe(fn, field) =>
      val kind = AggKind.parse(fn)
      val f = field.trim match { case "" | "*" => None; case x => Some(x) }
      require(kind == AggKind.Count || f.isDefined, s"$fn requires a field argument")
      AggSpec(kind, f)
    case other => throw new IllegalArgumentException(s"cannot parse aggregation '$other'")
  }

  private val delayedRe = """(?i)(.*?)\s+delayed\s+by\s+(.*)""".r

  def parseWindow(s: String): WindowSpec = {
    val (core, delayMs) = s match {
      case delayedRe(c, d) => (c.trim, parseDuration(d))
      case _               => (s.trim, 0L)
    }
    val lower = core.toLowerCase
    if (lower == "infinite") InfiniteWindow(delayMs)
    else if (lower.startsWith("sliding")) SlidingWindow(parseDuration(core.drop("sliding".length)), delayMs)
    else if (lower.startsWith("tumbling")) TumblingWindow(parseDuration(core.drop("tumbling".length)), delayMs)
    else throw new IllegalArgumentException(s"cannot parse window expression '$s'")
  }
}
