package repro.core.model

import java.io.{DataInput, DataOutput}

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

  /** The type a value travels as: integers are longs, and a value of no
    * field type travels as its string form.
    */
  def of(v: Any): FieldType = v match {
    case _: Long | _: Int => LongT
    case _: Double        => DoubleT
    case _                => StringT
  }

  /** Writes `v`, a value of type `t` (an Int as a long). */
  def write(out: DataOutput, t: FieldType, v: Any): Unit = t match {
    case LongT   => out.writeLong(v match { case i: Int => i.toLong; case l => l.asInstanceOf[Long] })
    case DoubleT => out.writeDouble(v.asInstanceOf[Double])
    case StringT => out.writeUTF(String.valueOf(v))
  }

  /** Reads a `t` value that [[write]] wrote. */
  def read(in: DataInput, t: FieldType): Any = t match {
    case LongT   => in.readLong()
    case DoubleT => in.readDouble()
    case StringT => in.readUTF()
  }
}

/** One field of an event schema. */
final case class FieldDef(name: String, ftype: FieldType)

/** A versioned event schema; the reservoir stores chunks tagged with the
  * schema id they were serialized under, so old chunks stay readable after
  * the schema evolves (§4.1.1).
  */
final case class EventSchema(id: Int, fields: Vector[FieldDef]) {

  /** Whether every value of `e` in a field of this schema is of the field's
    * type, the only type its chunks store: the plan then aggregates the same
    * value from the wire as from a chunk, and every chunk is writable.
    */
  def encodes(e: Event): Boolean = fields.indices.forall { i =>
    val v = e.values.getOrElse(fields(i).name, null)
    v == null || FieldType.of(v) == fields(i).ftype
  }
}

/** A stream event: a unique id (used for deduplication), an event-time
  * timestamp in milliseconds, and named field values (Long | Double | String).
  */
final case class Event(id: Long, ts: Long, values: Map[String, Any]) {

  /** Numeric view of a field; Longs widen to Double. */
  def num(field: String): Double = values.getOrElse(field, null) match {
    case d: Double => d
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case null      => throw new NoSuchElementException(s"field $field missing in event $id")
    case other     => throw new IllegalArgumentException(s"field $field not numeric: $other")
  }

  /** String view of a field (any type renders via toString). */
  def str(field: String): String = values.getOrElse(field, null) match {
    case null => throw new NoSuchElementException(s"field $field missing in event $id")
    case v    => v.toString
  }
}
