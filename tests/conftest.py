import pytest

from a2match import autodiff as ad


@pytest.fixture
def corrupted_matmul_backward(monkeypatch):
    """Replace ad.matmul with a copy whose weight-side gradient is 1.25 times
    too large, so a gradient checker has a broken backward rule to find."""

    def matmul(a, b):
        a, b = ad._as_tensor(a), ad._as_tensor(b)

        def bw(g):
            if a.requires_grad:
                ad._accum(a, g @ b.data.T)
            if b.requires_grad:
                ad._accum(b, (a.data.T @ g) * 1.25)

        return ad._make(a.data @ b.data, (a, b), bw)

    monkeypatch.setattr(ad, "matmul", matmul)
