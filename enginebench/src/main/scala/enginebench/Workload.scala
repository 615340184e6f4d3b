package enginebench

import repro.core.model.{FieldDef, FieldType}
import repro.core.reservoir.ReservoirConfig

/** One aggregation of a benchmark query, as the oracle understands it. */
final case class Agg(kind: String, field: String) {
  def label: String = s"$kind($field)"
}

/** A sliding-window query. The SQL given to the engine is rendered from the
  * same fields the oracle reads, so the two cannot disagree on the spec.
  */
final case class Query(name: String, groupBy: String, aggs: Seq[Agg],
                       windowMs: Long, delayMs: Long = 0L) {
  def sql: String = {
    val delay = if (delayMs > 0) s" delayed by $delayMs ms" else ""
    s"SELECT ${aggs.map(_.label).mkString(", ")} FROM ${Workload.Stream} " +
      s"GROUP BY $groupBy OVER sliding $windowMs ms$delay"
  }
}

/** A benchmark workload: cluster shape, queries, input distribution, the
  * fixed open-loop offered rate and the sizes of the unmeasured prefill and
  * the closed-loop throughput phase. Rates are constants, never derived per
  * run.
  */
final case class Workload(
    name: String,
    nodes: Int,
    unitsPerNode: Int,
    partitions: Int,
    replication: Int,
    reservoir: ReservoirConfig,
    partitioners: Seq[String],
    queries: Seq[Query],
    /** Event-time rate of the generated stream (events per second of ts). */
    eventRate: Double,
    cards: Int,
    merchants: Int,
    /** Wall-clock open-loop send rate, events per second. */
    offeredRate: Double,
    /** Events sent before timing: at least one window turnover. */
    prefillEvents: Int,
    /** Size of the closed-loop max-rate phase. */
    closedEvents: Int,
    /** Node failures (each followed by a fresh node joining) per open loop. */
    failovers: Int = 0) {

  def longestSpanMs: Long = queries.map(q => q.windowMs + q.delayMs).max
}

object Workload {
  val Stream = "payments"

  val schema: Vector[FieldDef] = Vector(
    FieldDef("cardId", FieldType.StringT),
    FieldDef("merchantId", FieldType.StringT),
    FieldDef("amount", FieldType.DoubleT))

  private val Minute = 60000L

  /** Fig. 10's query over a 150k-key state that overflows AggStateCache. */
  val cardSliding: Workload = Workload(
    name = "card-sliding",
    nodes = 2, unitsPerNode = 2, partitions = 4, replication = 2,
    reservoir = ReservoirConfig(),
    partitioners = Seq("cardId"),
    queries = Seq(Query("q", "cardId",
      Seq(Agg("sum", "amount"), Agg("avg", "amount"), Agg("count", "amount")), Minute)),
    eventRate = 1000.0, cards = 50000, merchants = 2000,
    offeredRate = 2200.0,
    prefillEvents = 64000,
    closedEvents = 40000)

  /** Fig. 9b's layout: 40 misaligned 2 s windows, 80 reservoir iterators. */
  val manyWindows: Workload = Workload(
    name = "many-windows",
    nodes = 2, unitsPerNode = 2, partitions = 4, replication = 2,
    reservoir = ReservoirConfig(chunkSizeEvents = 64, cacheChunks = 220),
    partitioners = Seq("cardId"),
    queries = (1 to 40).map(i =>
      Query(s"w$i", "cardId", Seq(Agg("sum", "amount")), 2000L, 600L * i)),
    eventRate = 500.0, cards = 200, merchants = 2000,
    offeredRate = 1000.0,
    prefillEvents = 14000,
    closedEvents = 8000)

  /** Two partitioners, cache-bypassing countDistinct, repeated failovers. */
  val fanoutFailover: Workload = Workload(
    name = "fanout-failover",
    nodes = 3, unitsPerNode = 2, partitions = 4, replication = 2,
    reservoir = ReservoirConfig(),
    partitioners = Seq("cardId", "merchantId"),
    queries = Seq(
      Query("qc", "cardId",
        Seq(Agg("sum", "amount"), Agg("max", "amount"), Agg("countDistinct", "merchantId")), Minute),
      Query("qm", "merchantId",
        Seq(Agg("avg", "amount"), Agg("stdDev", "amount"), Agg("countDistinct", "cardId")), Minute)),
    eventRate = 300.0, cards = 20000, merchants = 1000,
    offeredRate = 850.0,
    prefillEvents = 20000,
    closedEvents = 8000,
    failovers = 3)

  val all: Seq[Workload] = Seq(cardSliding, manyWindows, fanoutFailover)

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $name; one of ${all.map(_.name).mkString(", ")}"))
}
