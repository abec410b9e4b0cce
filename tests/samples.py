"""Random inputs shared by the test modules."""

import majorana as mj


def random_state(rng, twoS):
    """A spin state with independent standard complex normal amplitudes."""
    amps = rng.normal(size=twoS + 1) + 1j * rng.normal(size=twoS + 1)
    return mj.SpinState(twoS, amps)
