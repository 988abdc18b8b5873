"""Semi-equivelar maps on the sphere and the projective plane.

Exact combinatorial engine: vertex-type enumeration, the full catalog
of spherical and projective-plane semi-equivelar maps, the operators
relating them (truncation, rectification, dual, snub surgery, antipodal
quotients) and a decision procedure naming any valid input map.
"""

from semap._certpure import KERNEL_NAME

__version__ = "0.1.0"
