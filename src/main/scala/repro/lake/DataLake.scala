package repro.lake

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** A data lake: a bag of table cells, each cell a (attribute, value) pair.
  *
  * The paper's input is "a set of raw data tables from relational
  * databases, CSV files, or any other open data format" with possibly
  * missing or ambiguous metadata. The only structure DomainNet consumes is
  * which values occur in which columns, so the lake is represented
  * uniformly as a *cells* DataFrame with schema:
  *
  *   - `attribute: String` — globally unique column id, `"<table>.<column>"`
  *   - `value: String`     — the raw cell value rendered as a string
  *
  * Cells are NOT deduplicated here; multiplicity is needed by the paper's
  * preprocessing rule (drop values occurring exactly once in the lake).
  */
final case class DataLake(cells: DataFrame, numTables: Int) {

  /** Normalized, non-null cells of the lake: `(attribute, value)`, each
    * value normalized by [[DataLake.normalizeCol]].
    *
    * One query per lake: Spark analyses, optimizes and plans a Dataset once
    * and keeps the plan, so every reader of this lake reuses it. Each
    * action still scans the cells. The plan is fixed at first use, as with
    * Spark's own `Dataset.rdd`: a `cells.cache()` made after that is not
    * seen, so a caller who caches the cells later passes a new lake,
    * `copy(cells = cached)`.
    */
  lazy val normalizedCells: DataFrame =
    cells
      .select(col("attribute"), DataLake.normalizeCol(col("value")).as("value"))
      .filter(col("value").isNotNull)
}

object DataLake {

  /** Normalize a raw cell value the way the paper does: treat it as a
    * single string, trim surrounding whitespace, upper-case it. Empty and
    * null values normalize to null (dropped from the graph).
    *
    * "Whitespace" is Spark's `trim`: only U+0020 spaces are stripped, so a
    * value padded with a tab, a newline or a no-break space (U+00A0) stays
    * distinct from the bare value. DuckDB's `trim`, which the oracle tests
    * use, also strips U+00A0 and the other Unicode space separators, so
    * oracle tests keep such padding out of their inputs.
    */
  val normalizeCol: Column => Column =
    c => {
      val t = upper(trim(c))
      when(t.isNull || t === "", lit(null)).otherwise(t)
    }

  /** Build a lake from named tables. Every column of every table becomes an
    * attribute named `"<table>.<column>"`; every cell is cast to string.
    * Two (table, column) pairs with the same id, such as table `a.b` with
    * column `c` and table `a` with column `b.c`, are rejected rather than
    * merged into one attribute.
    * Null cells are kept here (graph construction filters them) so that
    * cell counts match the raw tables.
    */
  def fromTables(tables: Seq[(String, DataFrame)]): DataLake = {
    require(tables.nonEmpty, "a data lake needs at least one table")
    val owners = for ((tname, df) <- tables; c <- df.columns) yield s"$tname.$c" -> s"(table '$tname', column '$c')"
    owners.groupMap(_._1)(_._2).foreach { case (id, pairs) =>
      require(pairs.size == 1, s"attribute id '$id' is shared by ${pairs.mkString(" and ")}")
    }
    val cellDfs = tables.map { case (tname, df) =>
      val cols = df.columns
      require(cols.nonEmpty, s"table $tname has no columns")
      // Unpivot: one row per cell, labelled with its attribute id. An array
      // of structs (not a map) so null cell values survive the explode.
      val structs = cols.map { c =>
        struct(lit(s"$tname.$c").as("attribute"), col(c).cast("string").as("value"))
      }
      df.select(explode(array(structs.toIndexedSeq: _*)).as("cell"))
        .select(col("cell.attribute").as("attribute"), col("cell.value").as("value"))
    }
    DataLake(cellDfs.reduce(_.unionByName(_)), tables.size)
  }

  /** Build a lake directly from a cells DataFrame (columns `attribute`,
    * `value`). Used by the large synthetic generators which never
    * materialize wide tables.
    */
  def fromCells(cells: DataFrame, numTables: Int): DataLake = {
    val cols = cells.columns.toSet
    require(cols.contains("attribute") && cols.contains("value"),
      s"cells must have columns (attribute, value); got ${cells.columns.mkString(",")}")
    DataLake(cells.select(col("attribute"), col("value").cast("string")), numTables)
  }

  /** Convenience for tests: build a lake from in-memory columns, each named
    * by a `"<table>.<column>"` id with exactly one `.`.
    */
  def ofColumns(spark: SparkSession, columns: (String, Seq[String])*): DataLake = {
    import spark.implicits._
    columns.foreach { case (id, _) =>
      require(id.count(_ == '.') == 1, s"attribute id '$id' must be '<table>.<column>' with exactly one '.'")
    }
    val cells = columns.flatMap { case (attr, vals) => vals.map(v => (attr, v)) }
    val numTables = columns.map(_._1.takeWhile(_ != '.')).distinct.size
    DataLake(cells.toDF("attribute", "value"), numTables)
  }
}
