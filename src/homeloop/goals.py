"""Goal predicates over placements.

A goal is a finite expression tree of atoms — On, AllOn, SameReceptacle,
Holding — combined with And/Or/Not. Atoms reference objects and receptacles
through selectors (by id, by category, and/or by required attribute tags).

Evaluation happens in one pass against a *placement view*: a mapping from
id to entity (category, attributes, direct parent id) and the held id. Each
node defines ``satisfied`` or ``first_unsat``, and each of the two is stated
by the other: atoms say whether they hold, junctions and Not where the first
unsatisfied atom lies. The ground-truth evaluator never consults belief
maps; the planner evaluates the same tree on the belief's own objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional

from .errors import ConfigError, as_json, as_strings, field_names, fields_json, only_keys

if TYPE_CHECKING:
    from .world import World


@dataclass(frozen=True)
class Selector:
    """Matches an entity by id and/or category and/or attribute tags.
    All given criteria must hold."""

    id: Optional[str] = None
    category: Optional[str] = None
    attributes: frozenset[str] = frozenset()

    def matches(self, entity_id: str, category: str, attributes: Iterable[str]) -> bool:
        if self.id is not None and self.id != entity_id:
            return False
        if self.category is not None and self.category != category:
            return False
        return self.attributes.issubset(attributes)

    def describe(self) -> str:
        parts = []
        if self.id:
            parts.append(self.id)
        if self.category:
            parts.append(self.category)
        if self.attributes:
            parts.append("[" + ",".join(sorted(self.attributes)) + "]")
        return " ".join(parts) or "<any>"


class EntityView(NamedTuple):
    """One entity as seen by an evaluator."""

    id: str
    category: str
    attributes: frozenset[str]
    parent_id: Optional[str]  # direct receptacle id, None for floor/gripper
    is_receptacle: bool


class PlacementView(NamedTuple):
    """Uniform evaluation surface over ground truth or belief: any mapping
    from id to an entity with ``EntityView``'s fields, and the held id."""

    entities: Mapping[str, EntityView]
    holding: Optional[str]

    def select(self, sel: Selector) -> list[EntityView]:
        return [e for e in self.entities.values() if sel.matches(e.id, e.category, e.attributes)]

    def parent(self, e: EntityView) -> Optional[str]:
        """The id of what ``e`` rests on: None for the held entity, whatever
        it was last seen on."""
        return e.parent_id if e.id != self.holding else None


# --- predicate tree ---------------------------------------------------------


class Goal:
    """A node of the goal tree. ``satisfied`` and ``first_unsat`` are each
    stated by the other, so a node defines one of them: whether it holds,
    or the first atom, left to right, that does not."""

    def satisfied(self, view: PlacementView) -> bool:
        return self.first_unsat(view) is None

    def first_unsat(self, view: PlacementView) -> Optional[Goal]:
        return None if self.satisfied(view) else self

    def atoms(self) -> list["Goal"]:
        return [self]


@dataclass(frozen=True)
class On(Goal):
    """Some object matching the selector rests directly on a receptacle
    matching the receptacle selector."""

    obj: Selector
    receptacle: Selector

    def satisfied(self, view: PlacementView) -> bool:
        for e in view.select(self.obj):
            parent = view.entities.get(view.parent(e))
            if parent and self.receptacle.matches(parent.id, parent.category, parent.attributes):
                return True
        return False


@dataclass(frozen=True)
class AllOn(Goal):
    """Every object of the category rests on a receptacle matching the
    selector. Vacuously true when no such object exists."""

    category: str
    receptacle: Selector

    def satisfied(self, view: PlacementView) -> bool:
        for e in view.select(Selector(category=self.category)):
            if e.is_receptacle:
                continue
            parent = view.entities.get(view.parent(e))
            if parent is None or not self.receptacle.matches(parent.id, parent.category, parent.attributes):
                return False
        return True


@dataclass(frozen=True)
class SameReceptacle(Goal):
    """All objects of the category share one direct receptacle; requires at
    least one such object."""

    category: str

    def satisfied(self, view: PlacementView) -> bool:
        parents = {view.parent(e) for e in view.select(Selector(category=self.category)) if not e.is_receptacle}
        return len(parents) == 1 and None not in parents


@dataclass(frozen=True)
class Holding(Goal):
    obj: Selector

    def satisfied(self, view: PlacementView) -> bool:
        held = view.entities.get(view.holding)
        return held is not None and self.obj.matches(held.id, held.category, held.attributes)


@dataclass(frozen=True)
class _Junction(Goal):
    """And or Or over ``children``; dataclass equality keeps And and Or apart.
    ``parse_goal`` builds none without children, so an unsatisfied junction
    has an unsatisfied child."""

    children: tuple[Goal, ...]

    def atoms(self) -> list[Goal]:
        return [a for c in self.children for a in c.atoms()]


class And(_Junction):
    def first_unsat(self, view: PlacementView) -> Optional[Goal]:
        for c in self.children:
            found = c.first_unsat(view)
            if found is not None:
                return found
        return None


class Or(_Junction):
    def first_unsat(self, view: PlacementView) -> Optional[Goal]:
        if any(c.satisfied(view) for c in self.children):
            return None
        return self.children[0].first_unsat(view)


@dataclass(frozen=True)
class Not(Goal):
    child: Goal

    def first_unsat(self, view: PlacementView) -> Optional[Goal]:
        return self if self.child.satisfied(view) else None

    def atoms(self) -> list[Goal]:
        return self.child.atoms()


# --- JSON (de)serialization ---------------------------------------------------


SELECTOR_KEYS = field_names(Selector)

# Each operator's node class. An atom's body holds its fields (``obj``
# spelled "object"): a ``category`` is a required string, every other field a
# selector, which when left out matches anything.
OPERATORS: dict[str, type[Goal]] = {
    "and": And, "or": Or, "not": Not,
    "on": On, "all_on": AllOn, "same_receptacle": SameReceptacle, "holding": Holding,
}
_OPERATOR_OF = {cls: op for op, cls in OPERATORS.items()}


def _body_keys(atom: type[Goal]) -> dict[str, str]:
    """An atom's body keys, each with the field it fills."""
    return {"object" if name == "obj" else name: name for name in field_names(atom)}


def _parse_selector(raw: dict, path: str) -> Selector:
    if not isinstance(raw, dict):
        raise ConfigError(path, "selector must be an object")
    only_keys(raw, SELECTOR_KEYS, path)
    id_, category = (as_json(raw[key], str, f"{path}.{key}") if key in raw else None for key in ("id", "category"))
    return Selector(id_, category, frozenset(as_strings(raw.get("attributes", []), f"{path}.attributes")))


def parse_goal(raw: dict, path: str = "goal") -> Goal:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ConfigError(path, "goal node must be a single-key object")
    op, body = next(iter(raw.items()))
    cls = OPERATORS.get(op)
    if cls is None:
        raise ConfigError(path, f"unknown goal operator {op!r}")
    path = f"{path}.{op}"
    if issubclass(cls, _Junction):
        if not as_json(body, list, path):
            raise ConfigError(path, f"{op} needs at least one child")
        return cls(tuple(parse_goal(c, f"{path}[{i}]") for i, c in enumerate(body)))
    if cls is Not:
        return Not(parse_goal(body, path))
    keys = _body_keys(cls)
    only_keys(as_json(body, dict, path), tuple(keys), path)
    if "category" in keys and "category" not in body:
        raise ConfigError(path, "missing category")
    return cls(**{
        name: as_json(body[key], str, f"{path}.{key}") if name == "category"
        else _parse_selector(body.get(key, {}), f"{path}.{key}")
        for key, name in keys.items()
    })


def _selector_json(sel: Selector) -> dict:
    """The fields that narrow the selector, its attributes sorted."""
    return {
        key: sorted(value) if key == "attributes" else value
        for key, value in fields_json(sel).items() if value not in (None, frozenset())
    }


def goal_to_json(goal: Goal) -> dict:
    op = _OPERATOR_OF[type(goal)]
    if isinstance(goal, _Junction):
        return {op: [goal_to_json(c) for c in goal.children]}
    if isinstance(goal, Not):
        return {op: goal_to_json(goal.child)}
    return {op: {
        key: goal.category if name == "category" else _selector_json(getattr(goal, name))
        for key, name in _body_keys(type(goal)).items()
    }}


# --- ground-truth evaluation -----------------------------------------------------


def ground_view(world: World) -> PlacementView:
    entities: dict[str, EntityView] = {}
    for fid, f in world.furniture.items():
        entities[fid] = EntityView(
            id=fid,
            category=f.category,
            attributes=frozenset(),
            parent_id=None,
            is_receptacle=f.is_receptacle,
        )
    for oid, obj in world.objects.items():
        entities[oid] = EntityView(
            id=oid,
            category=obj.spec.category,
            attributes=frozenset(obj.spec.attributes),
            parent_id=obj.on,
            is_receptacle=obj.spec.receptacle,
        )
    return PlacementView(entities, world.gripper)


def goal_satisfied(world: World, goal: Goal) -> bool:
    """Evaluate against ground truth only; pure, no mutation."""
    return goal.satisfied(ground_view(world))
