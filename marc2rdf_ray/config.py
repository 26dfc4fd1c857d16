"""Pipeline configuration: the Library-config analog.

Mirrors /root/reference/lib/library.rb:3-19 + config/templates/libraries.json:
a source/resource configuration (URI template base+prefix+identifier_tag,
rdf:type list, chosen mapping) plus engine knobs.  Serialized as a plain
dataclass; the rule-set hash it induces is recorded in lineage manifests.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Optional

from .rules import RuleEngine, RuleSet
from .vocab import Vocabulary

_TEMPLATES = os.path.join(os.path.dirname(__file__), "templates")
DEFAULT_PAGE_MAPPING_PATH = os.path.join(_TEMPLATES, "page_mapping.json")


@dataclass
class PipelineConfig:
    """Everything needed to build a RuleEngine + pipeline stages."""

    mapping: Any = None            # dict, or path to a mapping JSON
    base: str = ""                 # subject template: base + prefix + id
    prefix: str = ""
    identifier_tag: str = "url"
    resource_type: Optional[str] = "FOAF.Document"
    extra_namespaces: dict = field(default_factory=dict)

    # engine knobs (sized for multi-node scale; see SURVEY.md §4.2)
    # >1 => sharded materialize (spill-cap loop): S sequential passes over
    # contiguous partition-id ranges, ~1/S object-store footprint each,
    # at the cost of re-reading the pruned checkpoint S times.
    # 0 (default) => AUTO: materialize_graph sizes the pass count from
    # estimated exchange bytes vs the cluster's object-store capacity
    # (stages/materialize.choose_shards), so an input that would spill
    # shards itself without the caller knowing the spill point.
    materialize_shards: int = 0

    # USER TRIPLES HOOK -- the declared replacement for the reference's
    # arbitrary per-record rule scripts (rule.rb:4,79-92; SURVEY.md §2.10):
    # a callable ``pa.Table -> pa.Table`` applied to every raw-triples
    # batch right after extraction, BEFORE checkpointing, so sameAs /
    # dedup / materialize all see its output (the same position the
    # reference runs user scripts: after conversion, before write).  The
    # output must keep the canonical triple columns.  ``triples_hook_tag``
    # is MANDATORY with a hook: it is the hook's cache identity -- it
    # folds into ruleset_hash so manifests and stage checkpoints recompute
    # when the hook changes (code objects can't be hashed reliably; the
    # tag is the user's versioning contract, bump it when the hook does).
    triples_hook: Any = None
    triples_hook_tag: Optional[str] = None

    def __post_init__(self):
        if self.mapping is None:
            self.mapping = DEFAULT_PAGE_MAPPING_PATH
        if self.triples_hook is not None and not self.triples_hook_tag:
            raise ValueError(
                "PipelineConfig: triples_hook requires triples_hook_tag "
                "(the hook's version identity -- it invalidates manifests "
                "and checkpoints when the hook changes; an untagged hook "
                "would silently reuse stale pre-hook artifacts)"
            )

    def load_mapping(self) -> dict:
        if isinstance(self.mapping, str):
            with open(self.mapping) as f:
                return json.load(f)
        return self.mapping

    def build_engine(self) -> RuleEngine:
        vocab = Vocabulary(self.extra_namespaces or None)
        ruleset = RuleSet(self.load_mapping(), vocab)
        return RuleEngine(
            ruleset,
            base=self.base,
            prefix=self.prefix,
            identifier_tag=self.identifier_tag,
            resource_type=self.resource_type,
        )

    def ruleset_hash(self) -> str:
        """Identity of the CONVERSION, not just the mapping document: the
        engine knobs that change the output (subject template, identifier
        tag, resource type, namespaces) are folded in, so a prefix change
        invalidates manifests / stage checkpoints exactly like a mapping
        edit (ADVICE r4: a prefix-only change previously kept the same
        hash and a matching manifest would wrongly short-circuit)."""
        import hashlib

        core = self.build_engine().ruleset.ruleset_hash
        ident = json.dumps(
            [
                self.base,
                self.prefix,
                self.identifier_tag,
                self.resource_type,
                sorted((self.extra_namespaces or {}).items()),
                self.triples_hook_tag,
            ],
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(f"{core}:{ident}".encode()).hexdigest()[:16]


def default_page_config(**overrides) -> PipelineConfig:
    """Pages pipeline: subject URI == the page url (base='', prefix='')."""
    return PipelineConfig(**overrides)


def marc_config(
    mapping: Any,
    base: str = "http://data.deichman.no/resource/",
    prefix: str = "tnr_",
    **overrides,
) -> PipelineConfig:
    """MARC-compatibility config (libraries.json analog)."""
    return PipelineConfig(
        mapping=mapping,
        base=base,
        prefix=prefix,
        identifier_tag="001",
        resource_type="BIBO.Document",
        **overrides,
    )
