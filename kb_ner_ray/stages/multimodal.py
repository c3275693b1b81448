"""Multimodal (image/audio) column plumbing.

Binary media travel as opaque ``binary`` columns with typed metadata; decode
and feature extraction are plain-task ``map_batches`` stages (a real
featurizer model would load once per worker through
``partitioning.worker_state``).  The actual codec libraries
(PIL/ffmpeg/torchaudio) are NOT in this container, so the decode kernel is
a clearly-marked deterministic fake behind the same interface
(``_decode_image`` raises NotImplementedError unless ``allow_fake=True``);
the Ray-side plumbing — schema, batch sizing for large binary payloads,
stage signature, output layout — is real and tested.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

IMAGE_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("url", pa.string()),
    ("content", pa.binary()),
    ("mime", pa.string()),
    ("width", pa.int32()),
    ("height", pa.int32()),
])


def make_fake_images(n: int, seed: int = 42) -> pa.Table:
    """Deterministic fake 'image' blobs: header(width,height) + noise bytes."""
    rows = []
    for i in range(n):
        h = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=16).digest()
        width = 32 + h[0] % 96
        height = 32 + h[1] % 96
        payload = struct.pack("<II", width, height) + h * 8
        rows.append({"media_id": i, "url": f"https://img.example.com/{i}.fake",
                     "content": payload, "mime": "image/fake",
                     "width": width, "height": height})
    return pa.Table.from_pylist(rows, schema=IMAGE_SCHEMA)


def _decode_image(content: bytes, allow_fake: bool = False) -> np.ndarray:
    """STUB: real deployments decode with PIL/libvips here. The fake decoder
    understands only the make_fake_images layout."""
    if not allow_fake:
        raise NotImplementedError(
            "image codecs are not available in this environment; "
            "pass allow_fake=True for the test fake")
    width, height = struct.unpack("<II", content[:8])
    body = np.frombuffer(content[8:], dtype=np.uint8)
    reps = (width * height + len(body) - 1) // len(body)
    return np.tile(body, reps)[: width * height].reshape(height, width)


def image_features(batch: pa.Table, allow_fake: bool = False) -> pa.Table:
    """Binary image column -> per-image feature vector (mean/std/
    histogram)."""
    means, stds, hists = [], [], []
    for content in batch.column("content").to_pylist():
        img = _decode_image(content, allow_fake)
        means.append(float(img.mean()))
        stds.append(float(img.std()))
        hist, _ = np.histogram(img, bins=8, range=(0, 256))
        hists.append((hist / hist.sum()).astype(np.float32).tolist())
    return pa.table({
        "media_id": batch.column("media_id"),
        "mean_px": pa.array(means, pa.float64()),
        "std_px": pa.array(stds, pa.float64()),
        "hist": pa.array(hists, pa.list_(pa.float32())),
    })


def image_feature_pipeline(images_ds, allow_fake: bool = False):
    """Small batch_size — large binary payloads (SURVEY.md §4 memory
    note)."""
    return images_ds.map_batches(
        image_features, fn_kwargs={"allow_fake": allow_fake},
        batch_format="pyarrow", batch_size=64)


# ---- audio ------------------------------------------------------------------

AUDIO_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("url", pa.string()),
    ("content", pa.binary()),
    ("mime", pa.string()),
    ("sample_rate", pa.int32()),
    ("n_samples", pa.int64()),
])


def make_fake_audio(n: int, seed: int = 43) -> pa.Table:
    """Deterministic fake 'audio' blobs: header(sample_rate, n_samples) +
    pseudo-PCM int16 bytes."""
    rows = []
    for i in range(n):
        h = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=16).digest()
        sr = 8000 * (1 + h[0] % 3)            # 8/16/24 kHz
        n_samples = 256 + h[1] * 8
        body = (np.frombuffer((h * ((2 * n_samples) // len(h) + 1))
                              [: 2 * n_samples], dtype=np.uint8)
                .astype(np.int16) - 128)
        payload = struct.pack("<IQ", sr, n_samples) + body.tobytes()
        rows.append({"media_id": i,
                     "url": f"https://audio.example.com/{i}.fake",
                     "content": payload, "mime": "audio/fake",
                     "sample_rate": sr, "n_samples": n_samples})
    return pa.Table.from_pylist(rows, schema=AUDIO_SCHEMA)


def _decode_audio(content: bytes, allow_fake: bool = False):
    """STUB: real deployments decode with ffmpeg/torchaudio here."""
    if not allow_fake:
        raise NotImplementedError(
            "audio codecs are not available in this environment; "
            "pass allow_fake=True for the test fake")
    sr, n_samples = struct.unpack("<IQ", content[:12])
    pcm = np.frombuffer(content[12:12 + 2 * n_samples], dtype=np.int16)
    return sr, pcm.astype(np.float64) / 32768.0


def audio_features(batch: pa.Table, allow_fake: bool = False,
                   n_bands: int = 8) -> pa.Table:
    """Binary audio column -> (rms, zero-crossing rate, ``n_bands``-band
    spectral energy).  The numpy kernels are the deterministic stand-ins
    for a real featurizer (mel spectrogram / wav2vec encoder)."""
    rmss, zcrs, bands = [], [], []
    for content in batch.column("content").to_pylist():
        _sr, x = _decode_audio(content, allow_fake)
        rmss.append(float(np.sqrt(np.mean(x * x))) if len(x) else 0.0)
        zcrs.append(float(np.mean(np.abs(np.diff(np.signbit(x)))))
                    if len(x) > 1 else 0.0)
        spec = np.abs(np.fft.rfft(x)) ** 2
        chunks = np.array_split(spec, n_bands)
        tot = sum(float(c.sum()) for c in chunks) or 1.0
        bands.append([float(c.sum()) / tot for c in chunks])
    return pa.table({
        "media_id": batch.column("media_id"),
        "rms": pa.array(rmss, pa.float64()),
        "zcr": pa.array(zcrs, pa.float64()),
        "band_energy": pa.array(bands, pa.list_(pa.float64())),
    })


def audio_feature_pipeline(audio_ds, allow_fake: bool = False):
    return audio_ds.map_batches(
        audio_features, fn_kwargs={"allow_fake": allow_fake},
        batch_format="pyarrow", batch_size=64)


# ---- video ------------------------------------------------------------------

VIDEO_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("url", pa.string()),
    ("content", pa.binary()),
    ("mime", pa.string()),
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("n_frames", pa.int32()),
    ("fps", pa.float32()),
])


def make_fake_videos(n: int, seed: int = 44) -> pa.Table:
    """Deterministic fake 'video' blobs: header(w, h, n_frames) + per-frame
    gray bytes."""
    rows = []
    for i in range(n):
        h = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=16).digest()
        w, ht = 16 + h[0] % 16, 16 + h[1] % 16
        n_frames = 8 + h[2] % 24
        frame_bytes = w * ht
        body = (h * ((n_frames * frame_bytes) // len(h) + 1))[
            : n_frames * frame_bytes]
        payload = struct.pack("<III", w, ht, n_frames) + body
        rows.append({"media_id": i,
                     "url": f"https://video.example.com/{i}.fake",
                     "content": payload, "mime": "video/fake",
                     "width": w, "height": ht, "n_frames": n_frames,
                     "fps": 24.0})
    return pa.Table.from_pylist(rows, schema=VIDEO_SCHEMA)


def _decode_video(content: bytes, allow_fake: bool = False) -> np.ndarray:
    """STUB: real deployments decode with ffmpeg/decord here.  Returns
    (n_frames, height, width) uint8."""
    if not allow_fake:
        raise NotImplementedError(
            "video codecs are not available in this environment; "
            "pass allow_fake=True for the test fake")
    w, h, n_frames = struct.unpack("<III", content[:12])
    body = np.frombuffer(content[12:12 + n_frames * w * h], dtype=np.uint8)
    return body.reshape(n_frames, h, w)


def frame_sample(batch: pa.Table, k: int = 4,
                 allow_fake: bool = False) -> pa.Table:
    """Flat-map: sample ``k`` frames evenly per video (the frame-sample
    seat) — one OUTPUT ROW PER FRAME, frames as binary."""
    mids, fidxs, frames, ws, hs = [], [], [], [], []
    for mid, content in zip(batch.column("media_id").to_pylist(),
                            batch.column("content").to_pylist()):
        vid = _decode_video(content, allow_fake)
        n = vid.shape[0]
        for fi in np.linspace(0, n - 1, min(k, n)).astype(int):
            mids.append(mid)
            fidxs.append(int(fi))
            frames.append(vid[fi].tobytes())
            hs.append(vid.shape[1])
            ws.append(vid.shape[2])
    return pa.table({
        "media_id": pa.array(mids, pa.int64()),
        "frame_idx": pa.array(fidxs, pa.int32()),
        "frame": pa.array(frames, pa.binary()),
        "frame_h": pa.array(hs, pa.int32()),
        "frame_w": pa.array(ws, pa.int32()),
    })


def video_frame_pipeline(video_ds, k: int = 4, allow_fake: bool = False):
    """videos -> sampled frames -> per-frame image features (the sampled
    frame is an image row; the image featurizer chains directly).
    batch_size stays small: a video row is the largest payload in the
    engine and k frames multiply it."""
    frames = video_ds.map_batches(
        frame_sample, fn_kwargs={"k": k, "allow_fake": allow_fake},
        batch_format="pyarrow", batch_size=16)

    def frame_stats(t: pa.Table) -> pa.Table:
        means, stds = [], []
        for b, h, w in zip(t.column("frame").to_pylist(),
                           t.column("frame_h").to_pylist(),
                           t.column("frame_w").to_pylist()):
            img = np.frombuffer(b, dtype=np.uint8).reshape(h, w)
            means.append(float(img.mean()))
            stds.append(float(img.std()))
        return pa.table({
            "media_id": t.column("media_id"),
            "frame_idx": t.column("frame_idx"),
            "mean_px": pa.array(means, pa.float64()),
            "std_px": pa.array(stds, pa.float64()),
        })

    return frames.map_batches(frame_stats, batch_format="pyarrow")
