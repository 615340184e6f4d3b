package repro.core.model

/** Field types supported by the Railgun event schema (§4.1.1 schema registry). */
sealed trait FieldType
object FieldType {
  case object LongT   extends FieldType
  case object DoubleT extends FieldType
  case object StringT extends FieldType

  def code(t: FieldType): Byte = t match {
    case LongT => 0; case DoubleT => 1; case StringT => 2
  }
  def fromCode(b: Byte): FieldType = b match {
    case 0 => LongT; case 1 => DoubleT; case 2 => StringT
    case other => throw new IllegalArgumentException(s"unknown field type code $other")
  }
}

/** One field of an event schema. */
final case class FieldDef(name: String, ftype: FieldType)

/** A versioned event schema; the reservoir stores chunks tagged with the
  * schema id they were serialized under, so old chunks stay readable after
  * the schema evolves (§4.1.1).
  */
final case class EventSchema(id: Int, fields: Vector[FieldDef])

/** A stream event: a unique id (used for deduplication), an event-time
  * timestamp in milliseconds, and named field values (Long | Double | String).
  */
final case class Event(id: Long, ts: Long, values: Map[String, Any]) {

  /** Numeric view of a field; Longs widen to Double. */
  def num(field: String): Double = values.get(field) match {
    case Some(d: Double) => d
    case Some(l: Long)   => l.toDouble
    case Some(i: Int)    => i.toDouble
    case Some(other)     => throw new IllegalArgumentException(s"field $field not numeric: $other")
    case None            => throw new NoSuchElementException(s"field $field missing in event $id")
  }

  /** String view of a field (any type renders via toString). */
  def str(field: String): String = values.get(field) match {
    case Some(v) => v.toString
    case None    => throw new NoSuchElementException(s"field $field missing in event $id")
  }
}
