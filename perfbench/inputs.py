"""Seeded inputs for the two benchmark workloads.

Each workload is a fixed *schedule* of requests, built from the seed
alone; the worker replays the schedule in passes until its time is up.
The seed varies what the program reads (names, values, attribute order,
which tasks repeat) but not the shape of the schedule, so every seed
asks for the same amount of search and the per-pass ``states_examined``
total is a property of the program, not of the draw.

``repro`` sees only the generated ``Database`` instances and declared
correspondences; the paper's scenarios are written out here rather than
taken from ``repro.workloads`` so that the inputs stay fixed while the
program changes.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

from repro import (
    Correspondence, Database, FunctionRegistry, Relation, builtin_registry,
)


@dataclass(frozen=True)
class Request:
    """One call into the program: ``discover_mapping`` (+ execution)."""

    key: str  # identifies the pair; equal keys are repeats
    source: Database
    target: Database
    algorithm: str
    heuristic: str
    correspondences: tuple = ()
    # Flights only: the scaled source the discovered mapping runs on.
    execute_on: Database | None = None

    @property
    def source_rows(self) -> int:
        """Rows the request carries through to its verified output."""
        db = self.execute_on if self.execute_on is not None else self.source
        return sum(len(rel) for rel in db)


@dataclass
class Workload:
    name: str
    schedule: list[Request]
    #: wall-clock limit of one request; slower requests count as failed
    deadline_s: float
    #: mapping_service runs against a warm-start store and a metrics registry
    service: bool = False
    registry: FunctionRegistry = field(default_factory=builtin_registry)

    def repeat_share(self) -> float:
        """Share of a pass's requests whose pair already came up in it."""
        seen: set[str] = set()
        repeats = 0
        for request in self.schedule:
            repeats += request.key in seen
            seen.add(request.key)
        return repeats / len(self.schedule)


def _word(rng: random.Random, low: int = 3, high: int = 9) -> str:
    return "".join(
        rng.choice(string.ascii_lowercase) for _ in range(rng.randint(low, high))
    )


# -- Experiment 1 (Figs. 5-6): synthetic matching pairs -----------------------


def matching_pair(size: int, rng: random.Random) -> tuple[Database, Database]:
    """One Experiment-1 pair: a single shared tuple, every attribute renamed.

    The seed picks the two name prefixes, the shared values and the
    target's attribute order.  Names keep the zero-padded ``<prefix><i>``
    form, which keeps the search effort the same for every draw.
    """
    src_prefix, tgt_prefix = rng.sample(string.ascii_uppercase, 2)
    values = [_word(rng) for _ in range(size)]
    order = list(range(size))
    rng.shuffle(order)
    source = Database.single(Relation(
        "R", [f"{src_prefix}{i + 1:02d}" for i in range(size)], [values]
    ))
    target = Database.single(Relation(
        "R",
        [f"{tgt_prefix}{i + 1:02d}" for i in order],
        [[values[i] for i in order]],
    ))
    return source, target


def _fig5(name: str, cells, rng: random.Random, deadline_s: float) -> Workload:
    schedule = []
    for index, (size, algorithm, heuristic) in enumerate(cells):
        source, target = matching_pair(size, rng)
        schedule.append(Request(
            f"{name}-{index}", source, target, algorithm, heuristic
        ))
    return Workload(name, schedule, deadline_s)


# One fig5 pass runs the paper's blind cell and both informed cells.  The
# two large pairs, blind n=6 and RBFS/euclid n=7, set request_p90_s; the
# request after each pays the collector for its garbage.  Four blind n=5
# pairs sit below the median and seven IDA/cosine n=7 pairs around it, so
# request_p50_s is an informed request, whose time is split between
# successor generation and the heuristic.  Blind IDA*/h0 spends most of its
# time generating successors; RBFS/euclid and IDA/cosine spend most of
# theirs in the heuristic.
FIG5 = (
    [(6, "ida", "h0")] + [(5, "ida", "h0")] * 4
    + [(7, "rbfs", "euclid")] + [(7, "ida", "cosine")] * 7
)


# -- Experiment 2 (Figs. 7-8) and 3 (Fig. 9): interface and semantic tasks ----

#: per domain: canonical attribute name -> synonyms real interfaces use
BAMM_VOCABULARY: dict[str, dict[str, tuple[str, ...]]] = {
    "Books": {
        "Title": ("BookTitle", "TitleWords"), "Author": ("Writer", "AuthorName"),
        "Isbn": ("ISBN13", "BookNumber"), "Publisher": ("Imprint", "PublishedBy"),
        "Price": ("MaxPrice", "PriceRange"), "Subject": ("Category", "Topic"),
        "Binding": ("Format", "BookFormat"), "Year": ("PubYear", "Published"),
        "Keyword": ("Keywords", "SearchTerms"),
    },
    "Automobiles": {
        "Make": ("Manufacturer", "Brand"), "Model": ("ModelName", "CarModel"),
        "Year": ("ModelYear", "CarYear"), "Price": ("MaxPrice", "PriceRange"),
        "Mileage": ("Miles", "Odometer"), "Color": ("ExteriorColor", "Paint"),
        "Zip": ("ZipCode", "PostalCode"), "Body": ("BodyStyle", "VehicleType"),
        "Fuel": ("FuelType", "Engine"),
    },
    "Music": {
        "Artist": ("Performer", "Band"), "Album": ("AlbumTitle", "Record"),
        "Song": ("Track", "SongTitle"), "Genre": ("Style", "MusicCategory"),
        "Label": ("RecordLabel", "Company"), "Year": ("ReleaseYear", "Released"),
        "Media": ("Format", "MusicFormat"), "Price": ("MaxPrice", "Cost"),
    },
    "Movies": {
        "Title": ("MovieTitle", "FilmTitle"), "Director": ("DirectedBy", "Filmmaker"),
        "Actor": ("Star", "CastMember"), "Genre": ("Category", "FilmGenre"),
        "Year": ("ReleaseYear", "Released"), "Rating": ("MPAARating", "Rated"),
        "Media": ("MediaFormat", "DiscFormat"), "Studio": ("Distributor", "StudioName"),
    },
}

#: distinct interfaces per domain in one pass of the service stream
BAMM_INTERFACES = 15
#: repeats per distinct pair: a third of the stream repeats an earlier pair,
#: so memo hits fill the fast end while the median request still searches
REPEATS_PER_PAIR = 0.5


def _bamm_tasks(rng: random.Random) -> list[tuple[str, Database, Database]]:
    """Interfaces of 1-8 attributes, about a third of them under a synonym.

    Which concepts an interface shows, and which it renames, is fixed by
    its index; the seed picks the shared values and the attribute order.
    """
    tasks = []
    for domain, concepts in BAMM_VOCABULARY.items():
        canonical = list(concepts)
        values = [_word(rng) for _ in canonical]
        source = Database.single(Relation(domain, canonical, [values]))
        for i in range(BAMM_INTERFACES):
            chosen = [(i + j) % len(canonical) for j in range(1 + i % 8)]
            rng.shuffle(chosen)
            names = [
                concepts[canonical[c]][c % 2] if (i + c) % 3 == 0
                else canonical[c]
                for c in chosen
            ]
            target = Database.single(Relation(
                f"{domain}Q{i:02d}", names, [[values[c] for c in chosen]]
            ))
            tasks.append((f"{domain}Q{i:02d}", source, target))
    return tasks


#: Fig. 9-style complex correspondences over an order table
SEMANTIC_FUNCTIONS = (
    ("multiply", ("Qty", "UnitPrice"), "Total"),
    ("full_name", ("First", "Last"), "Customer"),
    ("lb_to_kg", ("WeightLb",), "WeightKg"),
    ("date_mdy_to_iso", ("Placed",), "PlacedIso"),
)


def _semantic_tasks(rng: random.Random, registry):
    rows = [
        [f"O-{rng.randint(1000, 9999)}", rng.randint(1, 20), rng.randint(2, 90),
         rng.randint(1, 40), _word(rng).title(), _word(rng).title(),
         f"{rng.randint(1, 12)}/{rng.randint(1, 28)}/{rng.randint(1990, 2020)}"]
        for _ in range(2)
    ]
    attributes = ["OrderID", "Qty", "UnitPrice", "WeightLb", "First", "Last", "Placed"]
    source = Database.single(Relation("Orders", attributes, rows))
    tasks = []
    for count in range(1, len(SEMANTIC_FUNCTIONS) + 1):
        active = SEMANTIC_FUNCTIONS[:count]
        target_rows = []
        for row in rows:
            cells = dict(zip(attributes, row))
            target_rows.append(row + [
                registry.get(fn).apply(*(cells[a] for a in inputs))
                for fn, inputs, _ in active
            ])
        target = Database.single(Relation(
            "Orders", attributes + [out for _, _, out in active], target_rows
        ))
        correspondences = tuple(
            Correspondence(fn, inputs, out) for fn, inputs, out in active
        )
        tasks.append((f"Orders{count}", source, target, correspondences))
    return tasks


# -- Fig. 1 Flights: discover on critical instances, execute at scale ----------


def flights_b() -> Database:
    return Database.from_dict({"Prices": [
        {"Carrier": "AirEast", "Route": "ATL29", "Cost": 100, "AgentFee": 15},
        {"Carrier": "JetWest", "Route": "ATL29", "Cost": 200, "AgentFee": 16},
        {"Carrier": "AirEast", "Route": "ORD17", "Cost": 110, "AgentFee": 15},
        {"Carrier": "JetWest", "Route": "ORD17", "Cost": 220, "AgentFee": 16},
    ]})


def flights_a() -> Database:
    return Database.from_dict({"Flights": [
        {"Carrier": "AirEast", "Fee": 15, "ATL29": 100, "ORD17": 110},
        {"Carrier": "JetWest", "Fee": 16, "ATL29": 200, "ORD17": 220},
    ]})


def flights_c() -> Database:
    return Database.from_dict({
        "AirEast": [
            {"Route": "ATL29", "BaseCost": 100, "TotalCost": 115},
            {"Route": "ORD17", "BaseCost": 110, "TotalCost": 125},
        ],
        "JetWest": [
            {"Route": "ATL29", "BaseCost": 200, "TotalCost": 216},
            {"Route": "ORD17", "BaseCost": 220, "TotalCost": 236},
        ],
    })


#: scaled FlightsB sources: B->A pivots routes into columns, so it scales
#: by carrier; B->C partitions by the two named carriers, so by route
FLIGHTS_ROWS = 5_000
FLIGHTS_A_ROUTES = 4


def _route_names(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        names.add("".join(rng.choices(string.ascii_uppercase, k=3))
                  + f"{rng.randint(10, 99)}")
    return sorted(names)


def _prices(carriers, routes, rng: random.Random) -> Database:
    rows = []
    for carrier in carriers:
        fee = rng.randint(5, 40)
        for route in routes:
            rows.append([carrier, route, rng.randint(50, 900), fee])
    rng.shuffle(rows)
    return Database.single(
        Relation("Prices", ["Carrier", "Route", "Cost", "AgentFee"], rows)
    )


def _flights(rng: random.Random) -> list[Request]:
    carriers = sorted({
        _word(rng, 4, 8).title() + f"{i}"
        for i in range(FLIGHTS_ROWS // FLIGHTS_A_ROUTES)
    })
    to_a = _prices(carriers, _route_names(rng, FLIGHTS_A_ROUTES), rng)
    to_c = _prices(
        ["AirEast", "JetWest"], _route_names(rng, FLIGHTS_ROWS // 2), rng
    )
    total_cost = Correspondence("add", ("Cost", "AgentFee"), "TotalCost")
    return [
        Request("B->A", flights_b(), flights_a(), "rbfs", "cosine",
                execute_on=to_a),
        Request("B->C", flights_b(), flights_c(), "rbfs", "cosine",
                (total_cost,), execute_on=to_c),
    ]


# -- The mapping service: Figs. 7-9 and Fig. 1 in one request stream -----------


def _mapping_service(rng: random.Random) -> Workload:
    """Each distinct interface pair once, repeats of pairs already sent,
    and the two Flights mappings, each once, discovered and executed.

    Flights requests never repeat, so every seed executes the same rows.
    """
    registry = builtin_registry()
    distinct = [
        Request(key, source, target, "rbfs", "cosine")
        for key, source, target in _bamm_tasks(rng)
    ] + [
        Request(key, source, target, "rbfs", "cosine", correspondences)
        for key, source, target, correspondences in _semantic_tasks(rng, registry)
    ]
    rng.shuffle(distinct)
    slots = ["new"] * (len(distinct) - 1) + ["repeat"] * round(
        len(distinct) * REPEATS_PER_PAIR
    )
    rng.shuffle(slots)
    pending = iter(distinct)
    stream = [next(pending)]
    for slot in slots:
        stream.append(next(pending) if slot == "new" else rng.choice(stream))
    for request in _flights(rng):
        stream.insert(rng.randrange(len(stream) + 1), request)
    return Workload(
        "mapping_service", stream, 20.0, service=True, registry=registry
    )


def build(name: str, seed: int) -> Workload:
    """The workload *name* generated from *seed*."""
    rng = random.Random(f"{name}:{seed}")
    if name == "fig5_search":
        return _fig5(name, FIG5, rng, 60.0)
    if name == "mapping_service":
        return _mapping_service(rng)
    raise KeyError(name)

