"""Seeded data, request sequences and exact answers for the daemon workloads.

Everything here is a pure function of the workload seed: the data files
the daemon loads, the request lines it is sent, and the exact COUNT each
read request is scored against.  The exact answers are computed here,
independently of raestat, before any request is timed:

- select: prefix counts over the generated columns;
- join:   a cumulative count table over (o_price, s_region, p_size);
- ingest: a live insert/delete model of the stream (value histograms).

A request is a dict with the wire line plus what the checks need:
``cls`` (request class for the per-class report), ``kind`` ("read",
"write" or "admin"), ``truth`` for reads, and ``expect`` for writes.
"""

import itertools
import json
import os
import random

def _rng(workload, seed, stream):
    # String seeds are hashed with SHA-512 by `random`, so the stream does
    # not depend on PYTHONHASHSEED.
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


def _zipf_cum(n, skew):
    total, cum = 0.0, []
    for k in range(n):
        total += 1.0 / (k + 1) ** skew
        cum.append(total)
    return cum


def _write_csv(path, header, columns):
    rows = zip(*columns)
    with open(path, "w") as out:
        out.write(",".join(f"{name}:int" for name in header) + "\n")
        out.write("\n".join(",".join(map(str, row)) for row in rows))
        out.write("\n")


def _line(fields):
    return json.dumps(fields, separators=(",", ":"))


def _request(fields, cls, kind, truth=None, expect=None):
    return {"line": _line(fields), "cls": cls, "kind": kind, "truth": truth, "expect": expect}


def _schedule(rng, block, count):
    """Request classes in blocks: each block holds every class its fixed
    number of times, shuffled.  Class shares are then the same for every
    seed, so the pooled percentiles do not move with the mix."""
    out = []
    while len(out) < count:
        chunk = [cls for cls, n in block for _ in range(n)]
        rng.shuffle(chunk)
        out.extend(chunk)
    return out[:count]


class Workload:
    """A workload generates `max_rate` requests per second of run, an upper
    bound on the rate the daemon can serve them at."""

    def max_requests(self, seconds):
        return max(100, int(self.max_rate * seconds))


# --- select -------------------------------------------------------------


class Select(Workload):
    """Filter COUNTs over one 1,000,000-tuple relation bound as a pagefile."""

    name = "select"
    rows = 1_000_000
    domain = 1000
    fractions = (0.001, 0.002, 0.005, 0.01)
    max_rate = 4000
    accuracy_reads = 2000  # reads scored for q-error and CI misses
    trace_requests = 2000  # timed requests in a traced run
    writes = False

    def __init__(self, seed, datadir, pack):
        self.seed = seed
        rng = _rng(self.name, seed, "data")
        a = rng.choices(range(self.domain), k=self.rows)
        b = rng.choices(range(self.domain), cum_weights=_zipf_cum(self.domain, 1.0), k=self.rows)
        csv_path = os.path.join(datadir, "r.csv")
        _write_csv(csv_path, ["a", "b"], [a, b])
        raf_path = os.path.join(datadir, "r.raf")
        pack(csv_path, raf_path)
        os.unlink(csv_path)
        self.bindings = [("r", "r.raf")]
        # cum[attr][v] = number of tuples with attr <= v
        self.cum = {}
        for attr, column in (("a", a), ("b", b)):
            hist = [0] * self.domain
            for v in column:
                hist[v] += 1
            self.cum[attr] = list(itertools.accumulate(hist))
        self.predicates = self._predicates()

    def _count(self, attr, op, c):
        cum = self.cum[attr]
        le = cum[c]
        lt = cum[c - 1] if c > 0 else 0
        return {"<=": le, "<": lt, ">": self.rows - le, ">=": self.rows - lt}[op]

    def _predicates(self):
        # Range predicates with selectivity in [5%, 95%], constants on a
        # coarse grid so predicate text repeats and the plan cache both
        # hits and misses.
        preds = []
        for attr in ("a", "b"):
            for op in ("<=", "<", ">=", ">"):
                for c in range(5, self.domain, 15):
                    truth = self._count(attr, op, c)
                    if 0.05 * self.rows <= truth <= 0.95 * self.rows:
                        preds.append((f"{attr} {op} {c}", truth))
        return preds

    # Per 50 requests: fresh-seed draws, draws the warm sample cache
    # serves (no seed: the default seed's index set), and page samples.
    # The cheaper classes make up 26% and the dearer ones 26%, so p50_us
    # falls at the median of the fresh f = 0.005 class (48%); the 2% class
    # of 100-page samples is the slowest, so p99_us reads its median.
    block = [(("fresh", 0.005), 24), (("fresh", 0.001), 3), (("fresh", 0.002), 3),
             (("fresh", 0.01), 12)] + [(("warm", f), 1) for f in fractions] \
        + [(("pages", 20), 3), (("pages", 100), 1)]

    def requests(self, stream, count):
        rng = _rng(self.name, self.seed, stream)
        out = []
        for i, (cls, arg) in enumerate(_schedule(rng, self.block, count)):
            where, truth = rng.choice(self.predicates)
            fields = {"op": "estimate", "id": i, "relation": "r", "where": where}
            if cls == "pages":
                fields.update(pages=arg, seed=rng.randrange(1 << 30))
                cls = f"pages{arg}"
            else:
                fields["fraction"] = arg
                if cls == "fresh":
                    fields["seed"] = rng.randrange(1 << 30)
            out.append(_request(fields, cls, "read", truth=truth))
        return out

    def warmup(self):
        # Every request shape once, then enough fresh-seed draws to fill
        # the warm sample cache and grow the heap to its steady size.
        shapes = []
        for j, f in enumerate(self.fractions):
            where, truth = self.predicates[j]
            shapes.append(({"op": "estimate", "relation": "r", "where": where, "fraction": f}, "warm", truth))
        for m in (20, 100):
            where, truth = self.predicates[m]
            shapes.append(({"op": "estimate", "relation": "r", "where": where, "pages": m, "seed": m}, f"pages{m}", truth))
        out = [_request(dict(f, id=-1 - i), cls, "read", truth=t) for i, (f, cls, t) in enumerate(shapes)]
        return out + self.requests("warmup", 300)


# --- join ---------------------------------------------------------------


class Join(Workload):
    """Multi-relation COUNTs over a TPC-mini catalog bound from CSV."""

    name = "join"
    suppliers = 2000
    parts = 4000
    orders = 200_000
    regions = 5
    price_max = 400
    size_max = 50
    max_rate = 500
    accuracy_reads = 2000
    trace_requests = 600
    writes = False

    def __init__(self, seed, datadir, pack):
        self.seed = seed
        rng = _rng(self.name, seed, "data")
        s_region = rng.choices(range(self.regions), k=self.suppliers)
        s_balance = [max(0, int(rng.gauss(5000, 2000))) for _ in range(self.suppliers)]
        p_type = rng.choices(range(20), k=self.parts)
        p_size = rng.choices(range(1, self.size_max + 1), k=self.parts)
        o_supplier = rng.choices(range(self.suppliers), cum_weights=_zipf_cum(self.suppliers, 0.8), k=self.orders)
        o_part = rng.choices(range(self.parts), cum_weights=_zipf_cum(self.parts, 0.5), k=self.orders)
        o_quantity = [1 + int(rng.expovariate(1 / 8)) for _ in range(self.orders)]
        o_price = [min(self.price_max, max(1, int(rng.gauss(120, 60)))) for _ in range(self.orders)]
        _write_csv(os.path.join(datadir, "suppliers.csv"), ["s_key", "s_region", "s_balance"],
                   [range(self.suppliers), s_region, s_balance])
        _write_csv(os.path.join(datadir, "parts.csv"), ["p_key", "p_type", "p_size"],
                   [range(self.parts), p_type, p_size])
        _write_csv(os.path.join(datadir, "orders.csv"),
                   ["o_key", "o_supplier", "o_part", "o_quantity", "o_price"],
                   [range(self.orders), o_supplier, o_part, o_quantity, o_price])
        self.bindings = [(n, f"{n}.csv") for n in ("suppliers", "parts", "orders")]
        # cum[c][d][e] = orders with o_price <= c, s_region <= d, p_size <= e.
        P, R, S = self.price_max + 1, self.regions, self.size_max + 1
        cube = [[[0] * S for _ in range(R)] for _ in range(P)]
        for sup, part, price in zip(o_supplier, o_part, o_price):
            cube[price][s_region[sup]][p_size[part]] += 1
        for c in range(P):
            for d in range(R):
                row = cube[c][d]
                acc = 0
                for e in range(S):
                    acc += row[e]
                    row[e] = acc + (cube[c][d - 1][e] if d else 0)
        for c in range(1, P):
            for d in range(R):
                prev, row = cube[c - 1][d], cube[c][d]
                for e in range(S):
                    row[e] += prev[e]
        self.cube = cube
        # Predicate constants: a few hundred (price, region, size) values
        # drawn with a skew, so the 64-entry plan cache hits, misses and
        # evicts.
        self.price_cum = _zipf_cum(160, 0.9)

    def _truth(self, price, region, size):
        return self.cube[price][region][size]

    def _expr(self, shape, price, region, size, sql):
        o = f"o_price <= {price}"
        if shape == "fk":
            if sql:
                return f"SELECT COUNT(*) FROM orders JOIN suppliers ON o_supplier = s_key WHERE {o}"
            return f"select[{o}](orders) join[o_supplier = s_key] suppliers"
        if shape == "sjs":
            s = f"s_region <= {region}"
            if sql:
                return (f"SELECT COUNT(*) FROM orders JOIN suppliers ON o_supplier = s_key "
                        f"WHERE {o} AND {s}")
            return f"select[{o}](orders) join[o_supplier = s_key] select[{s}](suppliers)"
        p = f"p_size <= {size}"
        if sql:
            return (f"SELECT COUNT(*) FROM orders JOIN suppliers ON o_supplier = s_key "
                    f"JOIN parts ON o_part = p_key WHERE {o} AND {p}")
        return (f"(select[{o}](orders) join[o_supplier = s_key] suppliers) "
                f"join[o_part = p_key] select[{p}](parts)")

    # Per 50 requests: (shape, fraction, optimize) and its count.  The
    # cheaper select-join-selects make up 24% and the dearer chains and
    # optimized requests 16%, so p50_us falls near the median of the fk
    # joins (60%).  The optimized requests are one shape at one fraction,
    # so p99_us, which falls inside that 2% class, reads one kind of
    # request.
    block = [(("fk", 0.02, False), 30), (("sjs", 0.01, False), 12), (("chain", 0.05, False), 7),
             (("fk", 0.05, True), 1)]

    def _one(self, rng, i, shape, fraction, optimize):
        price = 80 + rng.choices(range(160), cum_weights=self.price_cum)[0]
        region = rng.randrange(1, self.regions)
        size = 25 + rng.randrange(0, self.size_max - 24)
        sql = rng.random() < 0.4
        region_bound = region if shape == "sjs" else self.regions - 1
        size_bound = size if shape == "chain" else self.size_max
        truth = self._truth(price, region_bound, size_bound)
        fields = {"op": "sql" if sql else "query", "id": i}
        fields["query" if sql else "expr"] = self._expr(shape, price, region, size, sql)
        fields.update(fraction=fraction, groups=5, seed=rng.randrange(1 << 30))
        cls = shape
        if optimize:
            fields["optimize"] = True
            cls = f"{shape}-opt"
        return _request(fields, cls, "read", truth=truth)

    def requests(self, stream, count):
        rng = _rng(self.name, self.seed, stream)
        return [self._one(rng, i, *spec) for i, spec in enumerate(_schedule(rng, self.block, count))]

    def warmup(self):
        rng = _rng(self.name, self.seed, "shapes")
        shapes = [self._one(rng, -1 - k, *spec) for k, (spec, _) in enumerate(self.block)]
        return shapes + self.requests("warmup", 200)


# --- ingest -------------------------------------------------------------


class Ingest(Workload):
    """Writes beside reads on a maintained stream converted from a CSV relation."""

    name = "ingest"
    rows = 100_000
    static_rows = 2000
    domain = 1000
    stream_params = {"capacity": 2048, "bernoulli": 0.02, "window": 1000}
    max_rate = 1000
    accuracy_reads = 2000
    trace_requests = 3000
    writes = True

    def __init__(self, seed, datadir, pack):
        self.seed = seed
        rng = _rng(self.name, seed, "data")
        a = rng.choices(range(self.domain), k=self.rows)
        b = rng.choices(range(100), k=self.rows)
        _write_csv(os.path.join(datadir, "s.csv"), ["a", "b"], [a, b])
        x = rng.choices(range(self.domain), k=self.static_rows)
        k = rng.choices(range(100), k=self.static_rows)
        _write_csv(os.path.join(datadir, "t.csv"), ["x", "k"], [x, k])
        self.bindings = [("s", "s.csv"), ("t", "t.csv")]
        t_hist = [0] * self.domain
        for v in x:
            t_hist[v] += 1
        self.t_cum = list(itertools.accumulate(t_hist))
        # The live model: id -> (a, b), histograms over a and b, and the
        # ids in a list for uniform choice of a live id to delete.
        self.live = {i: (a[i], b[i]) for i in range(self.rows)}
        self.ids = list(range(self.rows))
        self.slot = {i: i for i in range(self.rows)}
        self.hist = {"a": [0] * self.domain, "b": [0] * self.domain}
        for va, vb in zip(a, b):
            self.hist["a"][va] += 1
            self.hist["b"][vb] += 1
        self.next_id = self.rows
        self.epoch = 0
        self.rng = _rng(self.name, seed, "ops")
        self.counter = 0

    # live model -----------------------------------------------------------

    def _add(self, tup):
        i = self.next_id
        self.next_id += 1
        self.live[i] = tup
        self.slot[i] = len(self.ids)
        self.ids.append(i)
        self.hist["a"][tup[0]] += 1
        self.hist["b"][tup[1]] += 1
        return i

    def _remove(self, i):
        va, vb = self.live.pop(i)
        pos = self.slot.pop(i)
        last = self.ids.pop()
        if last != i:
            self.ids[pos] = last
            self.slot[last] = pos
        self.hist["a"][va] -= 1
        self.hist["b"][vb] -= 1

    def _count(self, attr, op, c):
        hist = self.hist[attr]
        le = sum(hist[: c + 1])
        return le if op == "<=" else len(self.live) - le

    def _tuple(self):
        return (self.rng.randrange(self.domain), self.rng.randrange(100))

    # requests ----------------------------------------------------------------

    def _next_id(self):
        self.counter += 1
        return self.counter

    def _ingest(self, convert=False):
        # Deletes stay a minority of each batch but close to its inserts, so
        # the population grows slowly and a run's later requests see much
        # the same stream as its first.
        n = self.rng.randrange(8, 25)
        inserts = [self._tuple() for _ in range(n)]
        deletes = self.rng.sample(self.ids, self.rng.randrange(n // 2, n))
        first = self.next_id
        for tup in inserts:
            self._add(tup)
        for i in deletes:
            self._remove(i)
        self.epoch += 2 if convert else 1
        fields = {"op": "ingest", "id": self._next_id(), "relation": "s",
                  "insert": [{"a": va, "b": vb} for va, vb in inserts], "delete": deletes}
        if convert:
            fields.update(self.stream_params, seed=self.seed)
        expect = {"epoch": self.epoch, "population": len(self.live), "first_id": first,
                  "inserted": n, "deleted": len(deletes)}
        return _request(fields, "ingest", "write", expect=expect)

    def _insert(self):
        tup = self._tuple()
        i = self._add(tup)
        self.epoch += 1
        fields = {"op": "insert", "id": self._next_id(), "relation": "s",
                  "tuple": {"a": tup[0], "b": tup[1]}}
        return _request(fields, "insert", "write",
                        expect={"epoch": self.epoch, "population": len(self.live), "id": i})

    def _estimate(self):
        attr = self.rng.choice(("a", "b"))
        hi = self.domain if attr == "a" else 100
        op = self.rng.choice(("<=", ">"))
        c = self.rng.randrange(hi // 10, hi - hi // 10)
        fields = {"op": "estimate", "id": self._next_id(), "relation": "s", "where": f"{attr} {op} {c}"}
        return _request(fields, "stream-estimate", "read", truth=self._count(attr, op, c),
                        expect={"epoch": self.epoch, "population": len(self.live)})

    def _query(self, kind=None):
        c = self.rng.randrange(100, self.domain - 100)
        seed = self.rng.randrange(1 << 30)
        if kind is None:
            roll = self.rng.random()
            kind = 0 if roll < 0.5 else 1 if roll < 0.75 else 2
        if kind == 0:
            fields = {"op": "query", "expr": f"select[x <= {c}](t)", "fraction": 0.1}
            truth, cls = self.t_cum[c], "static-query"
        elif kind == 1:
            fields = {"op": "sql", "query": f"SELECT COUNT(*) FROM t WHERE x <= {c}", "fraction": 0.1}
            truth, cls = self.t_cum[c], "static-query"
        else:
            fields = {"op": "query", "expr": f"select[a <= {c}](s)", "fraction": 0.01}
            truth, cls = self._count("a", "<=", c), "stream-query"
        fields.update(id=self._next_id(), groups=5, seed=seed)
        return _request(fields, cls, "read", truth=truth)

    def requests(self, stream, count):
        # The live model carries over from earlier calls: requests are
        # generated in the order they are sent.
        out = []
        rounds = 0
        while len(out) < count:
            rounds += 1
            out.append(self._ingest())
            # One round in two adds a single insert: batches stay the
            # majority write class, so write_p50_us is not pooled across
            # two equal classes.
            if rounds % 2:
                out.append(self._insert())
            out.append(self._estimate())
            if rounds % 40 == 0:
                out.append(self._query())
        return out

    def warmup(self):
        # The first write converts `s` into a maintained stream (one epoch
        # for the conversion, one for the batch); then every request shape
        # once, and enough rounds to grow the heap.
        first = self._ingest(convert=True)
        out = [first, self._insert(), self._estimate()]
        out += [self._query(kind) for kind in range(3)]
        return out + self.requests("warmup", 200)


WORKLOADS = {cls.name: cls for cls in (Select, Join, Ingest)}
