"""The Data Shaping Service (system S3): hierarchical rowsets from SHAPE.

The paper (section 3.1) uses Microsoft's Data Shaping Service to build
*casesets*: one row per entity with nested TABLE columns for one-to-many
facts.  ``execute_shape`` evaluates a parsed SHAPE expression against the
relational engine and returns the hierarchical rowset.
"""

from repro.shaping.shape import execute_shape, flatten_rowset

__all__ = ["execute_shape", "flatten_rowset"]
