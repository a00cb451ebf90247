"""Goal predicates over placements.

A goal is a finite expression tree of atoms — On, AllOn, SameReceptacle,
Holding — combined with And/Or/Not. Atoms reference objects and receptacles
through selectors (by id, by category, and/or by required attribute tags).

Evaluation happens in one pass against a *placement view*: a mapping from
object id to (category, attributes, direct parent id). The ground-truth
evaluator never consults belief maps; the planner uses the same predicate
code against its belief via a second view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .errors import ConfigError, as_json, only_keys

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
    parent: Optional[str]  # direct receptacle id, None for floor/gripper
    is_receptacle: bool


class PlacementView:
    """Uniform evaluation surface over ground truth or belief. It keeps the
    ``entities`` dict its builder made."""

    def __init__(self, entities: dict[str, EntityView], holding: Optional[str]) -> None:
        self.entities = entities
        self.holding = holding

    def select(self, sel: Selector) -> list[EntityView]:
        out = [e for e in self.entities.values() if sel.matches(e.id, e.category, e.attributes)]
        return sorted(out, key=lambda e: e.id)


# --- predicate tree ---------------------------------------------------------


class Goal:
    def satisfied(self, view: PlacementView) -> bool:
        raise NotImplementedError

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
            if e.parent is None:
                continue
            parent = view.entities.get(e.parent)
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
            if e.parent is None:
                return False
            parent = view.entities.get(e.parent)
            if parent is None or not self.receptacle.matches(parent.id, parent.category, parent.attributes):
                return False
        return True


@dataclass(frozen=True)
class SameReceptacle(Goal):
    """All objects of the category share one direct receptacle; requires at
    least one such object."""

    category: str

    def satisfied(self, view: PlacementView) -> bool:
        members = [e for e in view.select(Selector(category=self.category)) if not e.is_receptacle]
        if not members:
            return False
        parents = {e.parent for e in members}
        return len(parents) == 1 and None not in parents


@dataclass(frozen=True)
class Holding(Goal):
    obj: Selector

    def satisfied(self, view: PlacementView) -> bool:
        if view.holding is None:
            return False
        held = view.entities.get(view.holding)
        return held is not None and self.obj.matches(held.id, held.category, held.attributes)


@dataclass(frozen=True)
class And(Goal):
    children: tuple[Goal, ...]

    def satisfied(self, view: PlacementView) -> bool:
        return all(c.satisfied(view) for c in self.children)

    def atoms(self) -> list[Goal]:
        out: list[Goal] = []
        for c in self.children:
            out.extend(c.atoms())
        return out


@dataclass(frozen=True)
class Or(Goal):
    children: tuple[Goal, ...]

    def satisfied(self, view: PlacementView) -> bool:
        return any(c.satisfied(view) for c in self.children)

    def atoms(self) -> list[Goal]:
        out: list[Goal] = []
        for c in self.children:
            out.extend(c.atoms())
        return out


@dataclass(frozen=True)
class Not(Goal):
    child: Goal

    def satisfied(self, view: PlacementView) -> bool:
        return not self.child.satisfied(view)

    def atoms(self) -> list[Goal]:
        return self.child.atoms()


# --- JSON (de)serialization ---------------------------------------------------


def _parse_selector(raw: dict, path: str) -> Selector:
    if not isinstance(raw, dict):
        raise ConfigError(path, "selector must be an object")
    only_keys(raw, ("id", "category", "attributes"), path)
    for key in ("id", "category"):
        if key in raw:
            as_json(raw[key], str, f"{path}.{key}")
    attributes = as_json(raw.get("attributes", []), list, f"{path}.attributes")
    return Selector(
        id=raw.get("id"),
        category=raw.get("category"),
        attributes=frozenset(as_json(a, str, f"{path}.attributes[{i}]") for i, a in enumerate(attributes)),
    )


_BODY_KEYS = {
    "on": ("object", "receptacle"),
    "all_on": ("category", "receptacle"),
    "same_receptacle": ("category",),
    "holding": ("object",),
}


def parse_goal(raw: dict, path: str = "goal") -> Goal:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ConfigError(path, "goal node must be a single-key object")
    op, body = next(iter(raw.items()))
    if op == "and":
        return And(tuple(parse_goal(c, f"{path}.and[{i}]") for i, c in enumerate(as_json(body, list, f"{path}.and"))))
    if op == "or":
        return Or(tuple(parse_goal(c, f"{path}.or[{i}]") for i, c in enumerate(as_json(body, list, f"{path}.or"))))
    if op == "not":
        return Not(parse_goal(body, f"{path}.not"))
    if op in _BODY_KEYS:
        only_keys(as_json(body, dict, f"{path}.{op}"), _BODY_KEYS[op], f"{path}.{op}")
    if op == "on":
        return On(
            obj=_parse_selector(body.get("object", {}), f"{path}.on.object"),
            receptacle=_parse_selector(body.get("receptacle", {}), f"{path}.on.receptacle"),
        )
    if op == "all_on":
        if "category" not in body:
            raise ConfigError(f"{path}.all_on", "missing category")
        return AllOn(
            category=as_json(body["category"], str, f"{path}.all_on.category"),
            receptacle=_parse_selector(body.get("receptacle", {}), f"{path}.all_on.receptacle"),
        )
    if op == "same_receptacle":
        if "category" not in body:
            raise ConfigError(f"{path}.same_receptacle", "missing category")
        return SameReceptacle(category=as_json(body["category"], str, f"{path}.same_receptacle.category"))
    if op == "holding":
        return Holding(obj=_parse_selector(body.get("object", {}), f"{path}.holding.object"))
    raise ConfigError(path, f"unknown goal operator {op!r}")


def _selector_json(sel: Selector) -> dict:
    out: dict = {}
    if sel.id is not None:
        out["id"] = sel.id
    if sel.category is not None:
        out["category"] = sel.category
    if sel.attributes:
        out["attributes"] = sorted(sel.attributes)
    return out


def goal_to_json(goal: Goal) -> dict:
    if isinstance(goal, And):
        return {"and": [goal_to_json(c) for c in goal.children]}
    if isinstance(goal, Or):
        return {"or": [goal_to_json(c) for c in goal.children]}
    if isinstance(goal, Not):
        return {"not": goal_to_json(goal.child)}
    if isinstance(goal, On):
        return {"on": {"object": _selector_json(goal.obj), "receptacle": _selector_json(goal.receptacle)}}
    if isinstance(goal, AllOn):
        return {"all_on": {"category": goal.category, "receptacle": _selector_json(goal.receptacle)}}
    if isinstance(goal, SameReceptacle):
        return {"same_receptacle": {"category": goal.category}}
    if isinstance(goal, Holding):
        return {"holding": {"object": _selector_json(goal.obj)}}
    raise TypeError(f"unknown goal node {goal!r}")


# --- ground-truth evaluation -----------------------------------------------------


def ground_view(world: World) -> PlacementView:
    entities: dict[str, EntityView] = {}
    for fid, f in world.furniture.items():
        entities[fid] = EntityView(
            id=fid,
            category=f.category,
            attributes=frozenset(),
            parent=None,
            is_receptacle=f.is_receptacle,
        )
    for oid, obj in world.objects.items():
        entities[oid] = EntityView(
            id=oid,
            category=obj.spec.category,
            attributes=frozenset(obj.spec.attributes),
            parent=obj.placement.receptacle,
            is_receptacle=obj.spec.receptacle,
        )
    return PlacementView(entities, world.gripper)


def goal_satisfied(world: World, goal: Goal) -> bool:
    """Evaluate against ground truth only; pure, no mutation."""
    return goal.satisfied(ground_view(world))
